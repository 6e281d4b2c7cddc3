(* Percentile rules of the benchmark: the tail keeps ten ops beyond it
   at every op count, and the median follows the usual definition. *)

let check name cond = if not cond then failwith name

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let shuffled n =
  let a = ascending n in
  let st = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let above a v = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a

let () =
  (* Too few ops: no tail. *)
  List.iter
    (fun n ->
      check "no tail below 11 ops" (Benchstat.tail (ascending n) = None))
    [ 0; 1; 5; 10 ];
  (* Exactly ten ops beyond the tail, small and large counts alike. *)
  List.iter
    (fun n ->
      let a = shuffled n in
      match Benchstat.tail a with
      | None -> failwith "tail missing"
      | Some v ->
          check "ten beyond" (above a v = Benchstat.beyond);
          check "tail value" (v = float_of_int (n - Benchstat.beyond)))
    [ 11; 12; 30; 40; 120; 1000; 100_000 ];
  check "11 ops: tail is the minimum" (Benchstat.tail_index 11 = Some 0);
  check "1000 ops: p99" (Benchstat.tail_percentile 1000 = 99.);
  check "120 ops: rank 110" (Benchstat.tail_index 120 = Some 109);
  (* Neighbours: the tail op and the slowest-but-ten. *)
  let a = [| 5.; 1.; 9.; 3.; 7.; 2.; 8.; 4.; 6.; 10.; 11.; 12. |] in
  check "neighbours" (Benchstat.tail_neighbours a = Some (5, 3));
  check "no neighbours below 11 ops" (Benchstat.tail_neighbours (ascending 10) = None);
  check "median odd" (Benchstat.median [| 3.; 1.; 2. |] = 2.);
  check "median even" (Benchstat.median [| 4.; 1.; 3.; 2. |] = 2.5);
  print_endline "benchstat: ok"
