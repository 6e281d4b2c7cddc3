let block_size = 64

(* A prepared key is the SHA-256 state after the inner pad block
   (key xor 0x36) and after the outer pad block (key xor 0x5c).  Both
   passes of a MAC resume from these, so a short message costs two
   compressions instead of four.  Midstates are immutable; the keyed
   passes run in a per-domain scratch context. *)
type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare key =
  let pad = Bytes.make block_size '\x00' in
  (if String.length key > block_size then
     Bytes.blit_string (Sha256.digest_string key) 0 pad 0 32
   else Bytes.blit_string key 0 pad 0 (String.length key));
  let xor_pad x =
    for i = 0 to block_size - 1 do
      Bytes.unsafe_set pad i (Char.unsafe_chr (Char.code (Bytes.unsafe_get pad i) lxor x))
    done
  in
  let ctx = Sha256.init () in
  xor_pad 0x36;
  Sha256.feed_bytes ctx pad ~pos:0 ~len:block_size;
  let inner = Sha256.midstate ctx in
  xor_pad (0x36 lxor 0x5c);
  Sha256.reset ctx;
  Sha256.feed_bytes ctx pad ~pos:0 ~len:block_size;
  { inner; outer = Sha256.midstate ctx }

let scratch = Domain.DLS.new_key Sha256.init

let mac_with k msg =
  let ctx = Domain.DLS.get scratch in
  Sha256.resume ctx k.inner;
  Sha256.feed_string ctx msg;
  let inner = Sha256.finalize ctx in
  Sha256.resume ctx k.outer;
  Sha256.feed_string ctx inner;
  Sha256.finalize ctx

let mac ~key msg = mac_with (prepare key) msg

let mac_hex ~key msg = Sha256.hex_of_raw (mac ~key msg)

let equal a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  for i = 0 to String.length a - 1 do
    diff :=
      !diff lor (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i))
  done;
  !diff = 0
