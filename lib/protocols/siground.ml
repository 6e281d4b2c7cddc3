module Signature = Crypto.Signature

type t = {
  node : int;
  keyring : Crypto.Keyring.t;
  need : int;
  mutable consensus : Dirdoc.Consensus.t option;
  sigs : (int, Signature.t) Hashtbl.t;
  mutable own : Signature.t option;
  mutable decided_at : Tor_sim.Simtime.t option;
}

let create ~keyring ~node ~need =
  {
    node;
    keyring;
    need;
    consensus = None;
    sigs = Hashtbl.create 8;
    own = None;
    decided_at = None;
  }

let consensus t = t.consensus
let my_signature t = t.own
let count t = Hashtbl.length t.sigs
let decided_at t = t.decided_at

let check_decided t ~now =
  if t.decided_at = None && t.consensus <> None && count t >= t.need then
    t.decided_at <- Some now

let set_consensus t ~now c =
  (match t.consensus with
  | Some existing when not (Dirdoc.Consensus.equal existing c) ->
      invalid_arg "Siground.set_consensus: conflicting documents"
  | _ -> ());
  t.consensus <- Some c;
  let signature =
    Signature.sign t.keyring ~signer:t.node (Dirdoc.Consensus.signing_payload c)
  in
  t.own <- Some signature;
  Hashtbl.replace t.sigs t.node signature;
  check_decided t ~now;
  signature

let store t ~now ~digest signature =
  match t.consensus with
  | Some c
    when Crypto.Digest32.equal digest (Dirdoc.Consensus.digest c)
         && (not (Hashtbl.mem t.sigs signature.Signature.signer))
         && Signature.verify t.keyring signature (Dirdoc.Consensus.signing_payload c) ->
      Hashtbl.replace t.sigs signature.Signature.signer signature;
      check_decided t ~now
  | _ -> ()
