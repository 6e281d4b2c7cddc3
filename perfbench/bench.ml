(* Benchmark harness: runs one workload in one process on one domain and
   prints its metrics as the last line of standard output.

     python3 perfbench/run.py --workload chaos-campaign --seed 1 \
       --seconds 24 --trace 0

   builds this executable and runs it from the root of the checkout.
   [--trace 0] runs the workload's ops in passes for [--seconds] seconds
   and prints the end-to-end metrics of each op's least time, corrected
   for the host's speed by probes.  [--trace 1] runs the ops three
   times — timed, traced (layer laps, counters, spans) and traced with
   [Runenv.telemetry] on — checks that all three give the same outcomes,
   and prints the per-layer ledger.  NOTES.md describes the
   workloads and which layer metric should move which end-to-end metric. *)

module E = Torpartial.Experiments
module R = Protocols.Runenv

let now = Unix.gettimeofday

(* --- Tracing: layer laps, counters and spans ---------------------------- *)

(* Off in timed passes, where [lap] is a plain call. *)
let tracing = ref false

(* Set for the telemetry pass; workloads build their environments with it. *)
let telemetry = ref false

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_span = ref 0
let current = ref 0

(* Per-layer samples (mostly seconds per call) and summed counters. *)
let laps : (string, float list) Hashtbl.t = Hashtbl.create 16
let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let samples name = Option.value ~default:[] (Hashtbl.find_opt laps name)
let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let count name v = if !tracing then Hashtbl.replace counters name (counter name +. v)
let sample name v = if !tracing then Hashtbl.replace laps name (v :: samples name)

let p50 name =
  match samples name with [] -> 0. | l -> Benchstat.median (Array.of_list l)

(* One call into layer [name]: a span (child of the enclosing one) and a
   lap sample. *)
let lap name f =
  if not !tracing then f ()
  else begin
    incr next_span;
    let id = !next_span and parent = !current in
    current := id;
    let t0 = now () in
    match f () with
    | r ->
        let t1 = now () in
        current := parent;
        spans := { id; parent; name; t0; t1 } :: !spans;
        sample name (t1 -. t0);
        r
    | exception e ->
        current := parent;
        raise e
  end

let last_lap name = match samples name with t :: _ -> t | [] -> 0.

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write_spans path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc

(* --- Host-speed probes ---------------------------------------------------- *)

(* The host's speed drifts by up to 2x, for periods from under a second
   to longer than a run, while CPU time tracks wall time (NOTES.md, Host
   noise).  So a timed run corrects its times by speed probes, taken
   every [probe_period] seconds by a timer signal all through the run,
   inside ops and set-ups too.  A probe runs two fixed loops over data
   held outside the OCaml heap, so the GC never scans it, and runs none
   of the repository's code: a pointer chase through a random cycle of
   128 KB, which lives in the core's L2 cache, and a read of a 16 KB
   block, which lives in its L1 cache, into four independent sums.  The
   host's slow periods take away share of the core, its caches and its
   issue slots; of the loops tried, the mean slowdown of these two
   tracked the workloads' slowdowns best (NOTES.md). *)

(* Known element kind and layout, so that reads compile to plain loads. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let sattolo_cycle n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  (* Sattolo's shuffle: one cycle through every slot. *)
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let probe_data =
  lazy
    (let block : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 2048 in
     for i = 0 to 2047 do
       block.{i} <- i * 2654435761
     done;
     (sattolo_cycle (1 lsl 14), block))

let probe_period = 0.025

(* Each loop's time on a quiet host: about the fastest run medians seen
   on the Xeon in NOTES.md.  They only set the scale: corrected times
   are wall seconds on a host as fast as the probes were then. *)
let chase_quiet = 0.0006
let sums_quiet = 0.0003

(* Each chase goes on where the last one stopped. *)
let chase_at = ref 0

let chase (cycle : ints) =
  let p = ref !chase_at in
  for _ = 1 to 100_000 do
    p := Bigarray.Array1.unsafe_get cycle !p
  done;
  chase_at := !p

let sums (block : ints) =
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  for _ = 1 to 300 do
    for i = 0 to 511 do
      s0 := !s0 + Bigarray.Array1.unsafe_get block (4 * i);
      s1 := !s1 lxor Bigarray.Array1.unsafe_get block ((4 * i) + 1);
      s2 := !s2 + Bigarray.Array1.unsafe_get block ((4 * i) + 2);
      s3 := !s3 lxor Bigarray.Array1.unsafe_get block ((4 * i) + 3)
    done
  done;
  ignore (Sys.opaque_identity (!s0 + !s1 + !s2 + !s3))

type probe = { start : float; stop : float; chase_s : float; sums_s : float }

(* Every probe, newest first. *)
let probes : probe list ref = ref []

let probe () =
  let cycle, block = Lazy.force probe_data in
  let t0 = now () in
  chase cycle;
  let t1 = now () in
  sums block;
  let t2 = now () in
  probes := { start = t0; stop = t2; chase_s = t1 -. t0; sums_s = t2 -. t1 } :: !probes

let set_probe_timer period =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

let start_probes () =
  ignore (Lazy.force probe_data);
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  set_probe_timer probe_period

let stop_probes () = set_probe_timer 0.

(* Probes within this many seconds of an interval judge the host's
   speed during it.  One probe is noisy; the median of the twenty or
   more around an interval is not.  The host's speed can change within
   a second, so a wider window tracks it worse (NOTES.md). *)
let probe_window = 0.25

(* Corrects the wall seconds of intervals [(t0, t1)]: the probes that
   ran inside an interval are taken out of it, and the rest is scaled by
   the geometric mean of the two loops' quiet time ÷ their median time
   over the probes that end within [probe_window] of it. *)
let corrected intervals =
  let ps = List.rev !probes in
  Array.map
    (fun (t0, t1) ->
      let near = List.filter (fun p -> p.stop >= t0 -. probe_window && p.stop <= t1 +. probe_window) ps in
      let inside =
        List.fold_left
          (fun s p -> if p.start >= t0 && p.stop <= t1 then s +. p.stop -. p.start else s)
          0. near
      in
      let median f = Benchstat.median (Array.of_list (List.map f near)) in
      let speed =
        sqrt (chase_quiet /. median (fun p -> p.chase_s) *. (sums_quiet /. median (fun p -> p.sums_s)))
      in
      (t1 -. t0 -. inside) *. speed)
    intervals

(* --- Passes and ops ----------------------------------------------------- *)

type pass = {
  mutable times : float list;  (** op wall seconds, newest first *)
  mutable intervals : (float * float) list;  (** op start and end, newest first *)
  mutable failed : int;  (** ops that raised or failed a check *)
  mutable stalled : bool list;
      (** per campaign op, newest first: ours produced no agreed consensus *)
  outcome : Buffer.t;  (** per-op outcomes, digested by {!outcome_digest} *)
}

let new_pass () =
  { times = []; intervals = []; failed = 0; stalled = []; outcome = Buffer.create 4096 }

let times p = Array.of_list (List.rev p.times)
let corrected_times p = corrected (Array.of_list (List.rev p.intervals))
let total p = List.fold_left ( +. ) 0. p.times
let attempted p = List.length p.times
let outcome_digest p = Digest.to_hex (Digest.string (Buffer.contents p.outcome))
let alloc_words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

(* Run and time one op; an exception counts it as failed.  Traced
   passes also record its allocation and major collections. *)
let op pass f =
  let g0 = if !tracing then Some (Gc.quick_stat ()) else None in
  let t0 = now () in
  let r =
    match lap "op" f with
    | r -> Some r
    | exception e ->
        Printf.printf "op raised: %s\n%!" (Printexc.to_string e);
        None
  in
  let t1 = now () in
  pass.times <- (t1 -. t0) :: pass.times;
  pass.intervals <- (t0, t1) :: pass.intervals;
  if r = None then pass.failed <- pass.failed + 1;
  Option.iter
    (fun g0 ->
      let g1 = Gc.quick_stat () in
      count "gc.alloc_words" (alloc_words g1 -. alloc_words g0);
      count "gc.major" (float_of_int (g1.major_collections - g0.major_collections)))
    g0;
  r

let fail_check pass msg =
  Printf.printf "check failed: %s\n%!" msg;
  pass.failed <- pass.failed + 1

(* Set up [reps] times and keep the last state.  All but the last use a
   derived seed tag, so no process-wide cache answers them and every
   repetition does the full work.  Returns each repetition's start and
   end. *)
let setups reps f =
  let intervals = Array.make reps (0., 0.) in
  let state = ref None in
  for k = 0 to reps - 1 do
    let tag = if k = reps - 1 then "" else Printf.sprintf "/setup-%d" k in
    let t0 = now () in
    state := Some (f tag);
    intervals.(k) <- (t0, now ())
  done;
  (intervals, Option.get !state)

(* Median seconds of one call of [f], over [reps] timed blocks of
   [inner] calls each. *)
let micro ?(inner = 1) name ~reps f =
  Benchstat.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         lap name (fun () ->
             for _ = 1 to inner do
               ignore (Sys.opaque_identity (f ()))
             done);
         (now () -. t0) /. float_of_int inner))

(* A fixed loop that uses none of the repository's code: integer
   arithmetic plus a pointer chase through a 32 MB random cycle, so it
   slows down with the host's caches and memory as well as its cores.
   A reference for how fast the host runs at the start and end of a run.
   The cycle is rebuilt, untimed, on each call, so it is not live while
   the workload runs. *)
let host_ref () =
  let n = 1 lsl 22 in
  let next = Array.init n Fun.id in
  let st = Random.State.make [| 42 |] in
  (* Sattolo's shuffle: one cycle through every slot. *)
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let t0 = now () in
  let x = ref 1 and p = ref 0 in
  for i = 1 to 1_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff;
    p := next.(!p)
  done;
  ignore (Sys.opaque_identity (!x + !p));
  now () -. t0

(* Count a report's traffic and, with telemetry on, its engine profile. *)
let account (r : R.report) =
  let st = r.result.stats in
  let sent = ref 0 in
  for i = 0 to Tor_sim.Stats.n st - 1 do
    sent := !sent + Tor_sim.Stats.messages_sent st i
  done;
  count "sim.msgs" (float_of_int !sent);
  count "sim.bytes" (float_of_int r.total_bytes);
  count "sim.dropped" (float_of_int r.dropped);
  count "defense.rejected" (float_of_int r.rejected);
  Option.iter
    (fun (o : R.obs) ->
      List.iter
        (fun (s : Obs.Profiler.shard) ->
          count "sim.events" (float_of_int s.events);
          count "sim.busy_s" s.busy_s)
        o.profile)
    (R.report_obs r)

(* Record ours's verdict on a campaign op or protocol run. *)
let account_ours pass (r : R.report) =
  let stalled = not (r.success && r.agreement) in
  pass.stalled <- stalled :: pass.stalled;
  if stalled then begin
    count "protocols.ours_failed" 1.;
    count "protocols.stalled_s" (last_lap "protocols.ours")
  end
  else Option.iter (sample "protocols.decided_at") r.decided_at_latest;
  stalled

(* --- Metrics ------------------------------------------------------------ *)

type metric = string * float * string

(* Each op's least time over the timed passes, by [times] (wall or
   corrected seconds).  Host interference only adds time, so the least
   of several samples taken seconds apart is the benchmark's estimate of
   what an op costs. *)
let best_times times = function
  | [] -> [||]
  | p :: rest ->
      let best = times p in
      List.iter (fun q -> Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t) (times q)) rest;
      best

let e2e ~setup best =
  [
    ("setup_s", Benchstat.median setup, "s");
    ("ops_per_s", float_of_int (Array.length best) /. Array.fold_left ( +. ) 0. best, "1/s");
    ("op_s.p50", Benchstat.median best, "s");
    ("op_s.tail", Option.value ~default:Float.nan (Benchstat.tail best), "s");
  ]

(* Run [pass_ops] three times: timed (a), traced (b), and traced with
   telemetry (c).  The ledger keeps (b)'s laps and counters, plus the
   engine profile that only (c) records. *)
let traced_passes pass_ops =
  let a = new_pass () in
  pass_ops a;
  tracing := true;
  let b = new_pass () in
  pass_ops b;
  let b_laps = Hashtbl.copy laps and b_counters = Hashtbl.copy counters in
  telemetry := true;
  let c = new_pass () in
  pass_ops c;
  telemetry := false;
  let events = counter "sim.events" and busy = counter "sim.busy_s" in
  Hashtbl.reset laps;
  Hashtbl.iter (Hashtbl.replace laps) b_laps;
  Hashtbl.reset counters;
  Hashtbl.iter (Hashtbl.replace counters) b_counters;
  Hashtbl.replace counters "sim.events" events;
  Hashtbl.replace counters "sim.busy_s" busy;
  [ a; b; c ]

(* Layer metrics every workload reports, from passes (a), (b), (c). *)
let common_layers ~a ~b ~c =
  let ops = float_of_int (attempted b) in
  let events = counter "sim.events" and busy = counter "sim.busy_s" in
  let sent = counter "sim.msgs" in
  [
    ("sim.events_per_op", events /. ops, "count");
    ("sim.busy_s_per_op", busy /. ops, "s");
    ("sim.event_ns", busy /. events *. 1e9, "ns");
    ("sim.msgs_per_op", sent /. ops, "count");
    ("sim.bytes_per_op", counter "sim.bytes" /. ops, "B");
    ("sim.dropped_per_op", counter "sim.dropped" /. ops, "count");
    ("protocols.v3_s.p50", p50 "protocols.v3", "s");
    ("protocols.ours_s.p50", p50 "protocols.ours", "s");
    ("protocols.ours_failed", counter "protocols.ours_failed", "count");
    ("protocols.stalled_s", counter "protocols.stalled_s", "s");
    ("protocols.stalled_share", counter "protocols.stalled_s" /. total b, "ratio");
    ("protocols.decided_at.p50", p50 "protocols.decided_at", "sim_s");
    ("exec.sample_spec_s", p50 "exec.sample_spec", "s");
    ("exec.env_of_s", p50 "exec.env_of", "s");
    ("exec.digest_s", p50 "exec.digest", "s");
    ("defense.rejected_per_op", counter "defense.rejected" /. ops, "count");
    ( "defense.delivered_ratio",
      (sent -. counter "sim.dropped" -. counter "defense.rejected") /. sent,
      "ratio" );
    ("gc.alloc_mb_per_op", counter "gc.alloc_words" *. 8e-6 /. ops, "MB");
    ("gc.major_per_op", counter "gc.major" /. ops, "count");
    ("obs.telemetry_ratio", total c /. total b, "ratio");
    ("trace.overhead_ratio", total b /. total a, "ratio");
  ]

(* Timings of the documents and crypto layers over the workload's own
   votes; [op_p50] is the timed pass's median op. *)
let doc_layers ~keyring ~valid_after (votes : Dirdoc.Vote.t array) ~op_p50 ~check =
  let v = votes.(0) in
  let text = Dirdoc.Vote.serialize v in
  (match Dirdoc.Vote.parse text with
  | Ok v' when Dirdoc.Vote.equal v v' -> ()
  | Ok _ | Error _ -> check "vote parse does not round-trip");
  let payload = Crypto.Digest32.raw (Dirdoc.Vote.digest v) in
  let aggregate =
    micro "dirdoc.aggregate" ~reps:3 (fun () ->
        Dirdoc.Aggregate.consensus ~valid_after ~votes:(Array.to_list votes))
  in
  [
    ( "crypto.sha256_s",
      micro "crypto.sha256" ~reps:5 (fun () -> Crypto.Sha256.digest_string text),
      "s" );
    ( "crypto.sign_verify_s",
      micro "crypto.sign_verify" ~reps:5 ~inner:1000 (fun () ->
          Crypto.Signature.verify keyring (Crypto.Signature.sign keyring ~signer:0 payload) payload),
      "s" );
    ("dirdoc.aggregate_s", aggregate, "s");
    ("dirdoc.aggregate_share", aggregate /. op_p50, "ratio");
    ( "dirdoc.vote_create_s",
      micro "dirdoc.vote_create" ~reps:3 (fun () ->
          Dirdoc.Vote.create ~authority:v.authority
            ~authority_fingerprint:v.authority_fingerprint ~nickname:v.nickname
            ~published:v.published ~valid_after:v.valid_after ~relays:(Array.to_list v.relays)),
      "s" );
    ( "dirdoc.vote_serialize_s",
      micro "dirdoc.vote_serialize" ~reps:3 (fun () -> Dirdoc.Vote.serialize v),
      "s" );
    ("dirdoc.vote_parse_s", micro "dirdoc.vote_parse" ~reps:3 (fun () -> Dirdoc.Vote.parse text), "s");
  ]

(* Every per-layer metric, in BENCHMARK.json order, with its unit.  A
   metric of a layer the workload never calls reads 0. *)
let layer_units =
  [
    ("crypto.sha256_s", "s"); ("crypto.sign_verify_s", "s"); ("dirdoc.aggregate_s", "s");
    ("dirdoc.aggregate_share", "ratio"); ("dirdoc.vote_create_s", "s");
    ("dirdoc.vote_serialize_s", "s"); ("dirdoc.vote_parse_s", "s");
    ("sim.events_per_op", "count"); ("sim.busy_s_per_op", "s"); ("sim.event_ns", "ns");
    ("sim.msgs_per_op", "count"); ("sim.bytes_per_op", "B"); ("sim.dropped_per_op", "count");
    ("protocols.v3_s.p50", "s"); ("protocols.ours_s.p50", "s");
    ("protocols.ours_failed", "count"); ("protocols.stalled_s", "s");
    ("protocols.stalled_share", "ratio"); ("protocols.decided_at.p50", "sim_s");
    ("exec.ctx_create_s", "s"); ("exec.sample_spec_s", "s"); ("exec.env_of_s", "s");
    ("exec.digest_s", "s"); ("defense.rejected_per_op", "count");
    ("defense.delivered_ratio", "ratio"); ("attack.probes_per_search", "count");
    ("gc.alloc_mb_per_op", "MB"); ("gc.major_per_op", "count");
    ("obs.telemetry_ratio", "ratio"); ("trace.overhead_ratio", "ratio"); ("host.ref_s", "s");
  ]

let all_layers (metrics : metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> m
      | None -> (name, 0., unit))
    layer_units

(* --- Workloads ---------------------------------------------------------- *)

type workload = {
  setup : (float * float) array;  (** start and end of each set-up repetition *)
  pass_ops : pass -> unit;  (** run every op of the workload once *)
  check : pass -> float array -> bool;
      (** workload checks on a timed pass, given the per-op times the
          metrics are computed from *)
  layers : op_p50:float -> check:(string -> unit) -> metric list;
      (** traced runs: the workload's own per-layer metrics *)
}

(* The timed passes of a [--trace 0] run: as many as fit in [seconds],
   judged by the last pass's length, and at least [min_passes].  The
   more passes, the more chances each op has to run in a quiet moment of
   the host. *)
let min_passes = 3

let timed_passes w ~seconds =
  let t0 = now () in
  let rec go acc last =
    if List.length acc >= min_passes && now () -. t0 +. last > float_of_int seconds then
      List.rev acc
    else begin
      let p = new_pass () in
      let s = now () in
      w.pass_ops p;
      go (p :: acc) (now () -. s)
    end
  in
  go [] 0.

(* protocol-run: one op is [Experiments.run Ours] on a fresh
   [Runenv.of_spec] environment — 32k relays, 9 authorities, 250 Mbit/s,
   no attack.  Every op must decide, and all must agree on one
   consensus. *)
let protocol_run ~seed =
  let spec tag = { R.Spec.default with R.Spec.seed = seed ^ tag; n_relays = 32_000 } in
  let setup, votes = setups 3 (fun tag -> E.votes_for_spec (spec tag)) in
  let spec = spec "" in
  let pass_ops p =
    for _ = 1 to 12 do
      let env = { (R.of_spec ~votes spec) with R.telemetry = !telemetry } in
      match op p (fun () -> lap "protocols.ours" (fun () -> E.run E.Ours env)) with
      | None -> Buffer.add_string p.outcome "raised;"
      | Some r ->
          account r;
          if account_ours p r then fail_check p "ours produced no agreed consensus";
          let digest =
            Array.to_list r.result.per_authority
            |> List.find_map (fun (a : R.authority_result) ->
                   Option.map (fun c -> Crypto.Digest32.hex (Dirdoc.Consensus.digest c)) a.consensus)
          in
          Buffer.add_string p.outcome (Option.value ~default:"none" digest ^ ";")
    done
  in
  let check p _ =
    match String.split_on_char ';' (Buffer.contents p.outcome) with
    | d :: rest when d <> "none" && List.for_all (fun x -> x = "" || x = d) rest -> true
    | _ ->
        print_endline "check failed: ops disagree on the consensus";
        false
  in
  let layers =
    doc_layers ~keyring:(R.of_spec ~votes spec).keyring ~valid_after:spec.valid_after votes
  in
  { setup; pass_ops; check; layers }

(* chaos-campaign and defense-campaign: one op is one chaos plan — a
   fixed fault plan and behavior set, plan [first + i] of the chaos seed
   "bench" — run through [Experiments.run Current] and then [Ours] on
   one [Exec.Campaign] context.  The run's seed picks the relay
   population, keys and topology the plans run on. *)
let campaign ~defense ~first ~plans ~seed =
  let config =
    { Exec.Chaos.default_config with Exec.Chaos.seed = "bench"; plans = first + plans; defense }
  in
  let ctx_create = ref [] in
  let setup, ctx =
    setups 9 (fun tag ->
        let base = { (Exec.Chaos.base_spec config) with R.Spec.seed = seed ^ tag } in
        let votes = E.votes_for_spec base in
        let t0 = now () in
        let ctx = Exec.Campaign.create ~votes base in
        ctx_create := (now () -. t0) :: !ctx_create;
        ctx)
  in
  let run_plan index () =
    let spec = lap "exec.sample_spec" (fun () -> Exec.Chaos.sample_spec config ~index) in
    let plan = Exec.Campaign.plan_of_spec spec in
    ignore (lap "exec.digest" (fun () -> Exec.Campaign.digest ctx plan));
    let env = lap "exec.env_of" (fun () -> Exec.Campaign.env_of ~telemetry:!telemetry ctx plan) in
    let v3 = lap "protocols.v3" (fun () -> E.run E.Current env) in
    let ours = lap "protocols.ours" (fun () -> E.run E.Ours env) in
    (v3, ours)
  in
  let pass_ops p =
    for index = first to first + plans - 1 do
      match op p (run_plan index) with
      | None ->
          p.stalled <- false :: p.stalled;
          Buffer.add_string p.outcome "raised;"
      | Some ((v3 : R.report), (ours : R.report)) ->
          account v3;
          account ours;
          ignore (account_ours p ours);
          Printf.bprintf p.outcome "%b %b %b %s;" v3.success ours.success ours.agreement
            (Option.fold ~none:"none" ~some:(Printf.sprintf "%h") ours.decided_at_latest)
    done
  in
  (* The ops on both sides of the tail rank must come from one cluster —
     both stalled or both deciding — or host noise could flip the tail
     between a deciding op (~0.05 s) and a stalled one (~1-2 s). *)
  let check p best =
    let stalled = Array.of_list (List.rev p.stalled) in
    Printf.printf "outages=%d/%d\n" (List.length (List.filter Fun.id p.stalled)) (Array.length stalled);
    match Benchstat.tail_neighbours best with
    | Some (i, j) when stalled.(i) = stalled.(j) -> true
    | _ ->
        print_endline "check failed: the ops beside the tail rank are from different clusters";
        false
  in
  let layers ~op_p50 ~check =
    let base = Exec.Campaign.base_spec ctx in
    let votes = E.votes_for_spec base in
    doc_layers ~keyring:(R.of_spec ~votes base).keyring ~valid_after:base.valid_after votes
      ~op_p50 ~check
    @ [ ("exec.ctx_create_s", Benchstat.median (Array.of_list !ctx_create), "s") ]
  in
  { setup; pass_ops; check; layers }

(* attack-sweep: one op is one v3 probe — [Experiments.run Current]
   under [Attack.Ddos.bandwidth_attack ~n:9] — driven by Figure 7's
   0.1 Mbit/s binary search.  Each search's threshold must equal the
   recorded [Experiments.fig7] value.  The seed orders the searches. *)
let relay_counts = [ 2000; 5000; 8000 ]

let read_fig7 () =
  In_channel.with_open_text "perfbench/fig7.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ n; mbit ] -> Some (int_of_string n, float_of_string mbit)
         | _ -> None)

let attack_sweep ~seed =
  let expected = read_fig7 () in
  let order =
    let st = Random.State.make [| Hashtbl.hash seed |] in
    List.map snd (List.sort compare (List.map (fun n -> (Random.State.bits st, n)) relay_counts))
  in
  Printf.printf "relay_counts=%s\n" (String.concat "," (List.map string_of_int order));
  let spec tag n_relays = { R.Spec.default with R.Spec.seed = R.Spec.default.seed ^ tag; n_relays } in
  let setup, votes =
    setups 3 (fun tag -> List.map (fun n -> (n, E.votes_for_spec (spec tag n))) order)
  in
  let search p n_relays =
    let votes = List.assoc n_relays votes in
    let probe mbit =
      let attacks = Attack.Ddos.bandwidth_attack ~n:9 ~residual_bits_per_sec:(mbit *. 1e6) () in
      let env = R.of_spec ~votes { (spec "" n_relays) with R.Spec.attacks } in
      let env = { env with R.telemetry = !telemetry } in
      count "attack.probes" 1.;
      match op p (fun () -> lap "protocols.v3" (fun () -> E.run E.Current env)) with
      | None -> raise Exit
      | Some r ->
          account r;
          if r.success then Option.iter (sample "protocols.decided_at") r.decided_at_latest;
          r.success
    in
    (* Experiments.fig7's search, probe for probe. *)
    let rec bisect lo hi =
      if hi -. lo < 0.1 then hi
      else
        let mid = (lo +. hi) /. 2. in
        if probe mid then bisect lo mid else bisect mid hi
    in
    count "attack.searches" 1.;
    match if probe 0.05 then 0.05 else bisect 0.05 100. with
    | mbit ->
        Printf.bprintf p.outcome "%d:%h;" n_relays mbit;
        if List.assoc_opt n_relays expected <> Some mbit then
          fail_check p (Printf.sprintf "threshold %.17g at %d relays differs from fig7" mbit n_relays)
    | exception Exit -> Buffer.add_string p.outcome "raised;"
  in
  let layers ~op_p50 ~check =
    let n_max = List.fold_left max 0 relay_counts in
    let s = spec "" n_max and votes = List.assoc n_max votes in
    doc_layers ~keyring:(R.of_spec ~votes s).keyring ~valid_after:s.valid_after votes ~op_p50
      ~check
    @ [ ("attack.probes_per_search", counter "attack.probes" /. counter "attack.searches", "count") ]
  in
  {
    setup;
    pass_ops = (fun p -> List.iter (search p) order);
    check = (fun _ _ -> true);
    layers;
  }

(* --- Main --------------------------------------------------------------- *)

let workloads =
  [
    ("protocol-run", protocol_run);
    ("chaos-campaign", campaign ~defense:None ~first:0 ~plans:50);
    ("defense-campaign", campaign ~defense:(Some Defense.Plan.both) ~first:2 ~plans:20);
    ("attack-sweep", attack_sweep);
  ]

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 12 and trace = ref 0 in
  let spans_path = ref "" and record_fig7 = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " protocol-run, chaos-campaign, defense-campaign or attack-sweep");
      ("--seed", Arg.Set_string seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " how long the timed passes run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer ledger");
      ("--spans", Arg.Set_string spans_path, " traced runs: write spans here");
      ("--record-fig7", Arg.Set record_fig7, " print Experiments.fig7 at the sweep's relay counts");
    ]
    (fun a -> raise (Arg.Bad a))
    usage;
  if !record_fig7 then begin
    List.iter (fun (n, mbit) -> Printf.printf "%d %.17g\n" n mbit) (E.fig7 ~relay_counts ());
    exit 0
  end;
  let make =
    match List.assoc_opt !workload workloads with
    | Some make when !seed <> "" && (!trace = 0 || !trace = 1) -> make
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let ref_start = host_ref () in
  if !trace = 0 then start_probes ();
  let w = make ~seed:("bench-" ^ !seed) in
  let passes =
    if !trace = 0 then timed_passes w ~seconds:!seconds else traced_passes w.pass_ops
  in
  stop_probes ();
  let first = List.hd passes in
  let same =
    List.for_all
      (fun p -> outcome_digest p = outcome_digest first && attempted p = attempted first)
      passes
  in
  Printf.printf "outcome_digest=%s\n" (outcome_digest first);
  if not same then print_endline "check failed: passes disagree on outcomes";
  List.iteri
    (fun i p ->
      Printf.printf "pass %d: ops=%d failed=%d total_s=%.3f p50_s=%.4f\n" i (attempted p) p.failed
        (total p) (Benchstat.median (times p)))
    passes;
  (* Timed runs report each op's least corrected time; traced runs the
     timed pass's wall times. *)
  let best = if !trace = 0 then best_times corrected_times passes else times first in
  let ok = ref (same && w.check first best && Benchstat.tail best <> None) in
  let layers =
    match passes with
    | [ a; b; c ] when !trace = 1 ->
        let check m =
          print_endline ("check failed: " ^ m);
          ok := false
        in
        common_layers ~a ~b ~c @ w.layers ~op_p50:(Benchstat.median (times a)) ~check
    | _ -> []
  in
  let ref_end = host_ref () in
  if !trace = 1 && !spans_path <> "" then write_spans !spans_path;
  let wall = Array.map (fun (t0, t1) -> t1 -. t0) w.setup in
  let setup = if !trace = 0 then corrected w.setup else wall in
  Printf.printf "workload=%s seed=%s setup_s=[%s] wall [%s] op_s.tail=rank %d of %d (p%.1f)\n"
    !workload !seed
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") wall)))
    (Option.fold ~none:0 ~some:succ (Benchstat.tail_index (Array.length best)))
    (Array.length best)
    (Benchstat.tail_percentile (Array.length best));
  Printf.printf "host.ref_s start=%.4f end=%.4f\n" ref_start ref_end;
  if !trace = 0 then
    Printf.printf "probes=%d chase_s.p50=%.5f sums_s.p50=%.5f wall: %s\n" (List.length !probes)
      (Benchstat.median (Array.of_list (List.map (fun p -> p.chase_s) !probes)))
      (Benchstat.median (Array.of_list (List.map (fun p -> p.sums_s) !probes)))
      (String.concat " "
         (List.map
            (fun (name, v, _) -> Printf.sprintf "%s=%.4g" name v)
            (e2e ~setup:wall (best_times times passes))));
  let metrics =
    if !trace = 0 then e2e ~setup best
    else all_layers (layers @ [ ("host.ref_s", (ref_start +. ref_end) /. 2., "s") ])
  in
  let attempted = List.fold_left (fun k p -> k + attempted p) 0 passes in
  let failed = List.fold_left (fun k p -> k + p.failed) 0 passes in
  let correct = !ok && failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
              unit)
          metrics));
  exit (if correct then 0 else 1)
