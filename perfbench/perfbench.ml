(* Served-path benchmark executable (one process, one domain, jit backend).

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --out DIR [--setup-only]

   Set-up (input generation, replica construction with a cold private
   JIT cache, a full major GC) runs once; then fixed-size episodes of
   the workload repeat: [warmup_s] seconds of untimed warm-up, then
   timed episodes until [S] seconds of timed region have accumulated.
   Every episode serves the same inputs on freshly built replicas, so
   every simulated statistic must repeat exactly.  [jobs_per_s] is the
   upper quartile of the timed episodes' rates: every episode does the
   same work, so only the machine makes one slower than another, and
   co-tenant contention only ever slows an episode down.  The other
   host figures are totals over the timed episodes divided by their
   jobs.

   With --trace 1 timed episodes alternate untraced / traced: the traced
   ones give the per-layer split, the pairs give the tracer's own
   overhead.

   The last stdout line is one JSON object (correct, attempted, failed,
   metrics, setup_done_epoch); run.py adds setup_s and prints the
   benchmark's result line.  Diagnostics go to stderr. *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  setup_only : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload md5_serve|cpu_overload|fleet_burst --seed N \
     --seconds S --trace 0|1 --out DIR [--setup-only]";
  exit 2

let parse () =
  let o =
    ref { workload = ""; seed = 0; seconds = 10.; trace = false; out = ""; setup_only = false }
  in
  let rec go = function
    | "--workload" :: v :: r ->
      o := { !o with workload = v };
      go r
    | "--seed" :: v :: r ->
      o := { !o with seed = int_of_string v };
      go r
    | "--seconds" :: v :: r ->
      o := { !o with seconds = float_of_string v };
      go r
    | "--trace" :: v :: r ->
      o := { !o with trace = v = "1" };
      go r
    | "--out" :: v :: r ->
      o := { !o with out = v };
      go r
    | "--setup-only" :: r ->
      o := { !o with setup_only = true };
      go r
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !o.workload = "" || !o.out = "" || !o.seconds <= 0. then usage ();
  !o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a non-empty list. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The first episodes run slower than the rest while the heap grows
   (page faults, GC pacing); episodes are checked but not measured
   until this much episode time has passed. *)
let warmup_s = 2.0

type measured = {
  ep : Workloads.episode;
  warmup : bool;
  traced : bool;
  ns : int;
  instr : int;
  minor_words : float;
  major_gcs : int;
}

(* One episode: full major GC, then the timed region bracketed by the
   clock and the instruction counter, then the untimed check. *)
let measure (r : Workloads.run) ~warmup ~traced =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Counters.now_ns () in
  let i0 = Counters.instr () in
  r.Workloads.timed ();
  let i1 = Counters.instr () in
  let t1 = Counters.now_ns () in
  let g1 = Gc.quick_stat () in
  { ep = r.Workloads.check ();
    warmup;
    traced;
    ns = t1 - t0;
    instr = i1 - i0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections }

(* The same seed must give the same simulation in every process: the
   first run of a (workload, seed) records its digest, later runs —
   traced or not — compare against it. *)
let check_cross_process ~out ~name ~seed digest =
  let path = Filename.concat out (Printf.sprintf "sim-%s-%d.txt" name seed) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = input_line ic in
    close_in ic;
    prev = digest
  end
  else begin
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc = open_out tmp in
    output_string oc (digest ^ "\n");
    close_out oc;
    Sys.rename tmp path;
    true
  end

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       l)

let main () =
  let o = parse () in
  let w =
    match List.find_opt (fun w -> w.Workloads.name = o.workload) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  Counters.open_instr ();
  mkdir_p o.out;
  let jit_dir = Filename.concat o.out (Printf.sprintf "jit-%d" (Unix.getpid ())) in
  Hw.Sim_jit.set_cache_dir jit_dir;
  Hw.Sim_jit.clear_disk_cache ();
  at_exit Hw.Sim_jit.clear_disk_cache;
  Hw.Sim.default_backend := Hw.Sim.Jit;
  let make = w.Workloads.prepare ~seed:o.seed in
  let first = make ~traced:false in
  let setup_build = first.Workloads.build in
  (match setup_build.Workloads.fallback with
   | Some why ->
     log "FAIL %s: the JIT did not build native kernels (%s)" w.name why;
     exit 1
   | None -> ());
  Gc.full_major ();
  let setup_done = Unix.gettimeofday () in
  if o.setup_only then begin
    Printf.printf "{\"setup_done_epoch\": %.6f}\n%!" setup_done;
    exit 0
  end;
  if o.trace then begin
    Spans.calibrate ();
    Spans.start_log ()
  end;
  (* warm-up episodes, then timed ones: alternately untraced / traced
     under --trace 1 *)
  let budget = int_of_float (o.seconds *. 1e9) in
  let warmup_budget = int_of_float (warmup_s *. 1e9) in
  let peak_rss_kb = ref 0 in
  let rec loop r ~warmup ~traced acc warm_ns timed_ns n_timed =
    let m = measure r ~warmup ~traced in
    (* set-up plus one episode: later episodes only add heap growth that
       depends on how many of them fit in the run *)
    if acc = [] then peak_rss_kb := Counters.peak_rss_kb ();
    let acc = m :: acc in
    let warm_ns, timed_ns, n_timed =
      if warmup then (warm_ns + m.ns, timed_ns, n_timed)
      else (warm_ns, timed_ns + m.ns, n_timed + 1)
    in
    (* at least two timed episodes: one untraced and one traced under --trace 1 *)
    let enough = timed_ns >= budget && n_timed >= 2 in
    if enough || m.ep.failed > 0 || m.ep.violations > 0 then List.rev acc
    else begin
      let warmup = warm_ns < warmup_budget in
      let traced = o.trace && (not warmup) && n_timed mod 2 = 1 in
      let r = make ~traced in
      (match r.Workloads.build.fallback with
       | Some why -> failwith ("JIT fell back on rebuild: " ^ why)
       | None -> ());
      loop r ~warmup ~traced acc warm_ns timed_ns n_timed
    end
  in
  let eps = loop first ~warmup:true ~traced:false [] 0 0 0 in
  let e0 = (List.hd eps).ep in
  let attempted = List.fold_left (fun a m -> a + m.ep.attempted) 0 eps in
  let failed = List.fold_left (fun a m -> a + m.ep.failed) 0 eps in
  let violations = List.fold_left (fun a m -> a + m.ep.violations) 0 eps in
  let deterministic = List.for_all (fun m -> m.ep.sim = e0.sim) eps in
  (* a failure during the warm-up ends the run before any timed episode *)
  let timed_eps =
    match List.filter (fun m -> not m.warmup) eps with [] -> eps | l -> l
  in
  let traced_eps = List.filter (fun m -> m.traced) timed_eps in
  let untraced_eps = List.filter (fun m -> not m.traced) timed_eps in
  let layer_stable =
    match traced_eps with
    | [] -> true
    | m :: rest -> List.for_all (fun m' -> m'.ep.layer = m.ep.layer) rest
  in
  let cross = check_cross_process ~out:o.out ~name:w.name ~seed:o.seed e0.sim in
  let correct = failed = 0 && violations = 0 && deterministic && layer_stable && cross in
  if failed > 0 then log "FAIL %s: %d of %d requests failed" w.name failed attempted;
  if violations > 0 then log "FAIL %s: %d monitor / k-queue violations" w.name violations;
  if not deterministic then log "FAIL %s: episodes disagree on simulated statistics" w.name;
  if not layer_stable then log "FAIL %s: traced episodes disagree on layer statistics" w.name;
  if not cross then
    log "FAIL %s: seed %d simulated differently from an earlier run" w.name o.seed;
  let jobs m = float_of_int m.ep.completed in
  (* a host total over episodes [l], per completed job *)
  let per_job f l =
    List.fold_left (fun a m -> a +. f m) 0. l /. List.fold_left (fun a m -> a +. jobs m) 0. l
  in
  let n_lat = Array.length e0.latencies in
  log "%s seed %d: %d episodes (%d warm-up, %d traced), %d requests/episode, %d completed, \
       %d cycles, latency samples %d"
    w.name o.seed (List.length eps)
    (List.length eps - List.length timed_eps)
    (List.length traced_eps) e0.attempted e0.completed e0.cycles n_lat;
  let metrics =
    if not o.trace then begin
      let rate m = jobs m /. (float_of_int m.ns /. 1e9) in
      List.iter
        (fun m ->
          log "  episode: %.3fs  %.1f jobs/s  %.0f instr/job  %.0f minor words/job  %d major GCs%s"
            (float_of_int m.ns /. 1e9)
            (rate m) (float_of_int m.instr /. jobs m) (m.minor_words /. jobs m) m.major_gcs
            (if m.warmup then "  (warm-up)" else ""))
        eps;
      [ ("jobs_per_s", "1/s", quantile 0.75 (List.map rate timed_eps));
        ("host_instr_per_job", "count", per_job (fun m -> float_of_int m.instr) timed_eps);
        ( "jobs_per_kcycle",
          "1/kcycle",
          1000. *. float_of_int e0.completed /. float_of_int (max 1 e0.cycles) );
        ("latency_p50_cycles", "cycles", float_of_int (Workloads.percentile e0.latencies 0.50));
        ("latency_p99_cycles", "cycles", float_of_int (Workloads.percentile e0.latencies 0.99));
        ("peak_rss_mb", "MB", float_of_int !peak_rss_kb /. 1024.) ]
    end
    else begin
      let region_instr = List.fold_left (fun a m -> a + m.instr) 0 traced_eps in
      let region_ns = List.fold_left (fun a m -> a + m.ns) 0 traced_eps in
      let net_instr = float_of_int region_instr -. Spans.overhead_instr () in
      let kinds = Spans.kinds () in
      let sum layer f =
        List.fold_left (fun a k -> if k.Spans.layer = layer then a +. f k else a) 0. kinds
      in
      let self layer = sum layer Spans.self_instr in
      let steps = float_of_int (max 1 Workloads.k_step.Spans.count) in
      let top = [ Workloads.k_host_submit; Workloads.k_host_run; Workloads.k_fleet_submit;
                  Workloads.k_fleet_run ] in
      let top_ns = List.fold_left (fun a k -> a + k.Spans.ns) 0 top in
      let layer_of name =
        match traced_eps with
        | m :: _ -> (match List.assoc_opt name m.ep.layer with Some v -> v | None -> 0.)
        | [] -> 0.
      in
      let ns_job l = per_job (fun m -> float_of_int m.ns) l in
      let instr_job l = per_job (fun m -> float_of_int m.instr) l in
      let b = setup_build in
      let share_of x y = if y = 0. then 0. else x /. y in
      let tjobs = List.fold_left (fun a m -> a +. jobs m) 0. traced_eps in
      [ ("fleet.self_instr_per_job", "count", self Spans.Fleet /. tjobs);
        ("fleet.self_share", "ratio", self Spans.Fleet /. net_instr) ]
      @ List.map
          (fun (n, u) -> (n, u, layer_of n))
          [ ("fleet.cache_hit_ratio", "ratio"); ("fleet.coalesced_ratio", "ratio");
            ("fleet.dispatch_ratio", "ratio"); ("fleet.shed_ratio", "ratio");
            ("fleet.steals", "count"); ("fleet.kq_max_distance", "count") ]
      @ [ ("host.self_instr_per_job", "count", self Spans.Host /. tjobs);
          ("host.self_share", "ratio", self Spans.Host /. net_instr);
          ("host.occupancy", "ratio", layer_of "host.occupancy");
          ("host.queue_depth_p99", "jobs", layer_of "host.queue_depth_p99");
          ("host.queue_wait_p50_cycles", "cycles", layer_of "host.queue_wait_p50_cycles");
          ("host.queue_wait_p99_cycles", "cycles", layer_of "host.queue_wait_p99_cycles");
          ("replica.instr_per_step", "count", self Spans.Replica /. steps);
          ("replica.ns_per_step", "ns", sum Spans.Replica Spans.self_ns /. steps);
          ("replica.alloc_words_per_step", "words", sum Spans.Replica Spans.self_words /. steps);
          ("replica.self_share", "ratio", self Spans.Replica /. net_instr);
          ("replica.service_p50_cycles", "cycles", layer_of "replica.service_p50_cycles");
          ("replica.service_p99_cycles", "cycles", layer_of "replica.service_p99_cycles");
          ("replica.violations", "count", layer_of "replica.violations");
          ("gc.minor_words_per_job", "words", per_job (fun m -> m.minor_words) untraced_eps);
          ( "gc.major_collections",
            "count",
            median (List.map (fun m -> float_of_int m.major_gcs) untraced_eps) );
          ("setup.jit_codegen_s", "s", b.codegen_s);
          ("setup.jit_compile_s", "s", b.compile_s);
          ("setup.jit_load_s", "s", b.load_s);
          ( "setup.elaborate_s",
            "s",
            b.construct_s -. b.codegen_s -. b.compile_s -. b.load_s );
          ( "harness.share",
            "ratio",
            share_of (float_of_int (region_ns - top_ns)) (float_of_int region_ns) );
          ( "trace.overhead_time_share",
            "ratio",
            share_of (ns_job traced_eps -. ns_job untraced_eps) (ns_job untraced_eps) );
          ( "trace.overhead_instr_share",
            "ratio",
            share_of (instr_job traced_eps -. instr_job untraced_eps) (instr_job untraced_eps) ) ]
    end
  in
  if o.trace then begin
    let path = Filename.concat o.out (Printf.sprintf "spans-%s-%d.json" w.name o.seed) in
    Spans.save path;
    log "spans written to %s" path;
    List.iter
      (fun k ->
        if k.Spans.count > 0 then
          log "  %-22s %9d spans  self %14.0f instr  total %10.3f ms" k.Spans.name
            k.Spans.count (Spans.self_instr k) (float_of_int k.Spans.ns /. 1e6))
      (Spans.kinds ())
  end;
  List.iter (fun (n, u, v) -> log "  %-30s %14.4f %s" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"setup_done_epoch\": %.6f}\n%!"
    correct attempted failed (json_metrics metrics) setup_done

let () =
  try main ()
  with Failure msg ->
    log "FAIL: %s" msg;
    exit 1
