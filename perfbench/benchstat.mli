(** Order statistics for the benchmark's per-op timings. *)

val median : float array -> float
(** Median; the mean of the two middle samples for an even count.
    Raises [Invalid_argument] on an empty array. *)

val beyond : int
(** Samples that must lie above the tail rank: 10. *)

val tail_index : int -> int option
(** [tail_index n] is the 0-based ascending rank of the tail sample of
    [n] samples: the highest rank with at least {!beyond} samples above
    it, [n - 11].  [None] when [n <= 10]. *)

val tail_percentile : int -> float
(** The percentile the tail rank stands for, [100 (n - 10) / n]. *)

val tail : float array -> float option
(** The sample at {!tail_index}, if there are enough samples. *)

val tail_neighbours : float array -> (int * int) option
(** Input indices of the tail sample and of the next-slower sample
    (ties broken by input order), so a caller can check that both come
    from the same cluster of ops. *)
