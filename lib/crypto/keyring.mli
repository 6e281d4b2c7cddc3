(** Deterministic key registry for the simulated PKI.

    The paper's protocols use Ed25519/RSA signatures; inside a
    single-process simulation we substitute an HMAC-based scheme whose
    verification consults this registry (see DESIGN.md §2).  Keys are
    derived deterministically from a seed so every experiment is
    reproducible. *)

type t
(** An immutable registry mapping node ids [0 .. n-1] to secret keys. *)

val create : ?seed:string -> n:int -> unit -> t
(** [create ~seed ~n ()] derives [n] secret keys from [seed]
    (default seed ["torpartial-pki"]).  Raises [Invalid_argument]
    if [n <= 0]. *)

val size : t -> int
(** Number of registered nodes. *)

val secret : t -> int -> string
(** [secret t id] is the secret key of node [id].
    Raises [Invalid_argument] if [id] is out of range. *)

val hmac_key : t -> int -> Hmac.key
(** [hmac_key t id] is [secret t id] prepared once at {!create}, so
    signing and verifying skip the key's pad blocks.
    Raises [Invalid_argument] if [id] is out of range. *)

val fingerprint : t -> int -> string
(** [fingerprint t id] is a 40-char uppercase hex identity fingerprint
    for node [id], in the style of Tor authority fingerprints. *)

val mem : t -> int -> bool
(** [mem t id] is [true] iff [id] is a registered node. *)
