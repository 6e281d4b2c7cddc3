(* Order statistics for the benchmark's timings. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Benchstat.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The tail is the highest rank that still has [beyond] samples above
   it, so a tail value is never set by fewer than ten ops. *)
let beyond = 10

let tail_index n = if n > beyond then Some (n - beyond - 1) else None

let tail_percentile n = 100. *. float_of_int (n - beyond) /. float_of_int n

let tail a = Option.map (fun i -> (sorted a).(i)) (tail_index (Array.length a))

(* Positions, in ascending time order, of the samples on both sides of
   the tail rank: the tail sample and the lowest of the ten beyond. *)
let tail_neighbours a =
  match tail_index (Array.length a) with
  | None -> None
  | Some i ->
      let order = Array.init (Array.length a) Fun.id in
      Array.stable_sort (fun x y -> Float.compare a.(x) a.(y)) order;
      Some (order.(i), order.(i + 1))
