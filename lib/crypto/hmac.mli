(** HMAC-SHA256 (RFC 2104).

    Used both as a keyed MAC in its own right and as the core of the
    simulated signature scheme ({!Signature}).  Validated against the
    RFC 4231 test vectors in the test suite. *)

type key
(** A key with its two pad blocks already compressed.  Immutable, so
    one value can be shared across domains. *)

val prepare : string -> key
(** [prepare secret] compresses [secret]'s inner and outer pad blocks.
    Keys longer than the 64-byte block size are hashed first, per the
    RFC. *)

val mac_with : key -> string -> string
(** [mac_with k msg] is the 32-byte raw HMAC-SHA256 of [msg] under the
    prepared key [k]; a message of up to 55 bytes costs two SHA-256
    compressions. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is [mac_with (prepare key) msg]. *)

val mac_hex : key:string -> string -> string
(** [mac_hex ~key msg] is [mac] rendered as lowercase hex. *)

val equal : string -> string -> bool
(** [equal a b] compares two MACs in time independent of where they
    first differ (constant-time for equal lengths). *)
