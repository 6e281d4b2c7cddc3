(** The dissemination sub-protocol (Section 5.2.1).

    Nodes broadcast their documents; each node assembles a signed
    per-sender digest vector (a PROPOSAL) for the current view's
    leader; the leader combines [n - f] proposals into a digest vector
    [H] and an externally verifiable proof [π], the value fed to the
    agreement sub-protocol.  Per entry [j] the proof is one of:

    + {b Present} — [f + 1] proposer signatures on [(j, h_j)]
      together with [j]'s own signature on its digest, guaranteeing at
      least one correct node holds the full document;
    + {b Equivocation} — two digests both signed by [j], justifying
      exclusion;
    + {b Absent} — [f + 1] proposer signatures on [(j, ⊥)],
      guaranteeing the leader is not censoring a document every
      correct node saw (the GST = 0 value-validity argument). *)

type entry = {
  digest : Crypto.Digest32.t option;        (** [None] is ⊥ *)
  sender_sig : Crypto.Signature.t option;   (** σ_j(j, h_j), present iff digest is *)
  proposer_sig : Crypto.Signature.t;        (** σ_i(j, h_j) or σ_i(j, ⊥) *)
}

type proposal = { proposer : int; entries : entry array }

type entry_proof =
  | Present of Crypto.Signature.t * Crypto.Signature.t list
      (** sender's signature on its digest, plus [f+1] proposer sigs *)
  | Equivocation of (Crypto.Digest32.t * Crypto.Signature.t) * (Crypto.Digest32.t * Crypto.Signature.t)
  | Absent of Crypto.Signature.t list

type value = {
  vector : Crypto.Digest32.t option array;  (** H *)
  proofs : entry_proof array;               (** π, one per entry *)
}
(** The agreement sub-protocol's input/output value [(H, π)]. *)

val doc_payload : sender:int -> Crypto.Digest32.t option -> string
(** The byte string signed for digest assertions: ["doc|j|h"] or
    ["doc|j|⊥"]. *)

val sign_document :
  Crypto.Keyring.t -> sender:int -> Crypto.Digest32.t -> Crypto.Signature.t
(** σ_j(j, h_j), attached to the DOCUMENT broadcast. *)

val make_proposal :
  Crypto.Keyring.t ->
  proposer:int ->
  digests:(Crypto.Digest32.t * Crypto.Signature.t) option array ->
  proposal
(** Build node [proposer]'s PROPOSAL from the documents it received:
    entry [j] is [(h_j, σ_j)] or ⊥, each co-signed by the proposer. *)

val proposal_valid : Crypto.Keyring.t -> n:int -> f:int -> proposal -> bool
(** At least [n - f] non-⊥ entries, all signatures verify, and every
    non-⊥ entry carries the sender's own signature. *)

(** Leader-side accumulation of proposals. *)
module Collector : sig
  type t

  val create : Crypto.Keyring.t -> n:int -> f:int -> t

  val add : t -> proposal -> unit
  (** Record a (valid) proposal; invalid ones are ignored, a proposer's
      later proposal replaces its earlier one.  A proposal equal to the
      one held from its proposer (same digests, same signatures) is
      skipped without re-verifying; any other is checked in full. *)

  val held : t -> int -> proposal option
  (** [held t proposer] is the proposal recorded from [proposer]. *)

  val count : t -> int

  val build : t -> value option
  (** [Some (H, π)] once at least [n - f] proposals are held {e and}
      the assembled vector has at least [n - f] non-⊥ entries
      (the "ready" condition); [None] otherwise. *)
end

val validate : Crypto.Keyring.t -> n:int -> f:int -> value -> bool
(** External validity of [(H, π)]: every entry proof checks out,
    proof kinds match vector entries, and [|H|_{≠⊥} >= n - f]. *)

val value_digest : value -> Crypto.Digest32.t
(** Binding digest of [(H, π)]'s vector, used by the agreement
    sub-protocol. *)

val value_wire_size : value -> int
(** Modelled bytes of [(H, π)] on the wire: O(n) digests plus O(n·f)
    signatures. *)
