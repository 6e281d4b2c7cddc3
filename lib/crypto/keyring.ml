type t = {
  secrets : string array;
  keys : Hmac.key array; (* [secrets] prepared for HMAC, same order *)
  fingerprints : string array;
}

let create ?(seed = "torpartial-pki") ~n () =
  if n <= 0 then invalid_arg "Keyring.create: n must be positive";
  let seed_key = Hmac.prepare seed in
  let derive id = Hmac.mac_with seed_key (Printf.sprintf "node-secret-%d" id) in
  let secrets = Array.init n derive in
  let keys = Array.map Hmac.prepare secrets in
  let fingerprints =
    Array.init n (fun id ->
        let hex = Sha256.digest_hex ("identity-" ^ secrets.(id)) in
        String.uppercase_ascii (String.sub hex 0 40))
  in
  { secrets; keys; fingerprints }

let size t = Array.length t.secrets

let check t id name =
  if id < 0 || id >= size t then invalid_arg ("Keyring." ^ name ^ ": bad node id")

let secret t id =
  check t id "secret";
  t.secrets.(id)

let hmac_key t id =
  check t id "hmac_key";
  t.keys.(id)

let fingerprint t id =
  check t id "fingerprint";
  t.fingerprints.(id)

let mem t id = id >= 0 && id < size t
