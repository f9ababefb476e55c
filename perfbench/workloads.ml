(* The three served-path workloads.  Each enters the program through
   the call a user makes — [Serve.Engine.run ~domains:1] or
   [Fleet.Frontend.run] without a pool — with replicas the benchmark
   builds beforehand and hands in, so no elaboration or JIT compile
   lands in the timed region.

   A workload is prepared once per process from the seed (input
   generation), then built once per episode (replica construction,
   untimed) into a [run]: [timed] is the measured region, [check] the
   untimed golden check and statistics that follow it. *)

open Serve

(* ---- episode results ---- *)

type episode = {
  attempted : int;
  completed : int;
  failed : int;  (* shed, timed out, Failed, or golden mismatch *)
  violations : int;  (* protocol monitors and k-queue scoreboards *)
  cycles : int;  (* simulated cycles of the serving loop *)
  latencies : int array;  (* due arrival -> completion, sorted *)
  sim : string;  (* every simulated statistic, for determinism checks *)
  layer : (string * float) list;  (* simulated layer statistics *)
}

type build = {
  construct_s : float;  (* wall time of every replica construction *)
  codegen_s : float;
  compile_s : float;
  load_s : float;
  fallback : string option;  (* a JIT build that did not go native *)
}

type run = { build : build; timed : unit -> unit; check : unit -> episode }

type workload = {
  name : string;
  prepare : seed:int -> traced:bool -> run;
}

(* Percentile by nearest rank over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Construct replicas, timing each and collecting its JIT build. *)
let construct n make =
  let acc = ref { construct_s = 0.; codegen_s = 0.; compile_s = 0.; load_s = 0.; fallback = None } in
  let replicas =
    Array.init n (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = make i in
        let dt = Unix.gettimeofday () -. t0 in
        let b = !acc in
        acc :=
          (match Hw.Sim_jit.last_build () with
           | None -> { b with construct_s = b.construct_s +. dt; fallback = Some "no JIT build recorded" }
           | Some s ->
             { construct_s = b.construct_s +. dt;
               codegen_s = b.codegen_s +. s.Hw.Sim_jit.codegen_seconds;
               compile_s = b.compile_s +. s.Hw.Sim_jit.compile_seconds;
               load_s = b.load_s +. s.Hw.Sim_jit.load_seconds;
               fallback =
                 (match s.Hw.Sim_jit.bmode with
                  | Hw.Sim_jit.Native -> b.fallback
                  | Hw.Sim_jit.Fallback why -> Some why) });
        r)
  in
  (replicas, !acc)

(* ---- traced replicas ---- *)

(* In a traced episode every job carries its id and due cycle, so the
   replica wrapper can stamp queue wait and service time. *)
type 'p tagged = { id : int; arrival : int; payload : 'p }

let tag arrivals payloads =
  Array.mapi (fun i p -> { id = i; arrival = arrivals.(i); payload = p }) payloads

type stamps = {
  mutable waits : int list;  (* arrival -> start *)
  mutable services : int list;  (* start -> completion *)
  mutable started : int list;  (* start cycles *)
}

let new_stamps () = { waits = []; services = []; started = [] }

let k_step = Spans.kind "replica.step" Spans.Replica
let k_start = Spans.kind "replica.start" Spans.Replica
let k_slot_free = Spans.kind "replica.slot_free" Spans.Replica
let k_completions = Spans.kind "replica.completions" Spans.Replica
let k_cancel = Spans.kind "replica.cancel" Spans.Replica
let k_cycle_no = Spans.kind "replica.cycle_no" Spans.Replica
let k_finish = Spans.kind "replica.finish" Spans.Replica
let k_violations = Spans.kind "replica.violations" Spans.Replica
let k_host_submit = Spans.kind "host.submit" Spans.Host
let k_host_run = Spans.kind "host.run" Spans.Host
let k_fleet_submit = Spans.kind "fleet.submit" Spans.Fleet
let k_fleet_run = Spans.kind "fleet.run" Spans.Fleet

(* Every closure of the record becomes a span.  The wrapper keeps its
   own cycle count (one per [step]) instead of calling [cycle_no], so
   stamping adds no replica work. *)
let wrap stamps (r : ('p, 'res) Backend_intf.replica) :
    ('p tagged, 'res) Backend_intf.replica =
  let cycle = ref (r.cycle_no ()) in
  let start_at = Array.make r.slots 0 in
  { Backend_intf.slots = r.slots;
    slot_free =
      (fun i ->
        Spans.enter k_slot_free;
        let v = r.slot_free i in
        Spans.leave ();
        v);
    start =
      (fun ~slot j ->
        Spans.enter ~job:j.id k_start;
        r.start ~slot j.payload;
        Spans.leave ();
        start_at.(slot) <- !cycle;
        stamps.waits <- (!cycle - j.arrival) :: stamps.waits;
        stamps.started <- !cycle :: stamps.started);
    cancel = (fun ~slot -> Spans.span k_cancel (fun () -> r.cancel ~slot));
    step =
      (fun () ->
        Spans.enter k_step;
        r.step ();
        Spans.leave ();
        incr cycle);
    completions =
      (fun () ->
        Spans.enter k_completions;
        let l = r.completions () in
        Spans.leave ();
        List.iter
          (fun (s, _) -> stamps.services <- (!cycle - start_at.(s)) :: stamps.services)
          l;
        l);
    cycle_no =
      (fun () ->
        Spans.enter k_cycle_no;
        let v = r.cycle_no () in
        Spans.leave ();
        v);
    finish = (fun () -> Spans.span k_finish r.finish);
    violations = (fun () -> Spans.span k_violations r.violations) }

let stamp_layer stamps =
  let w = sorted_of_list stamps.waits and s = sorted_of_list stamps.services in
  [ ("host.queue_wait_p50_cycles", float_of_int (percentile w 0.50));
    ("host.queue_wait_p99_cycles", float_of_int (percentile w 0.99));
    ("replica.service_p50_cycles", float_of_int (percentile s 0.50));
    ("replica.service_p99_cycles", float_of_int (percentile s 0.99)) ]

(* ---- single-host workloads through Serve.Engine ---- *)

(* Per-cycle host backlog of a single engine replica, rebuilt from the
   due cycles and the start stamps: at step [c] the queue holds every
   job due by [c] that had not started before [c] (nothing is shed,
   nothing times out).  This is what the host's queue-depth gauge
   samples. *)
let backlog_p99 ~arrivals ~started ~cycles =
  if cycles = 0 then 0
  else begin
    let due = Array.make (cycles + 1) 0 and go = Array.make (cycles + 1) 0 in
    Array.iter (fun a -> if a <= cycles then due.(a) <- due.(a) + 1) arrivals;
    List.iter (fun c -> if c <= cycles then go.(c) <- go.(c) + 1) started;
    let depth = Array.make cycles 0 in
    let arrived = ref 0 and started_before = ref 0 in
    for c = 0 to cycles - 1 do
      arrived := !arrived + due.(c);
      depth.(c) <- !arrived - !started_before;
      started_before := !started_before + go.(c)
    done;
    Array.sort compare depth;
    percentile depth 0.99
  end

let engine_serve ~classes ~replica ~jobs ~arrivals ~traced =
  let e = Engine.create ~classes ~make_replica:(fun _ -> replica) () in
  if traced then Spans.enter k_host_submit;
  Array.iteri (fun i j -> ignore (Engine.submit ~arrival:arrivals.(i) e j)) jobs;
  if traced then begin
    Spans.leave ();
    Spans.enter k_host_run
  end;
  let report = Engine.run ~domains:1 e in
  if traced then Spans.leave ();
  (report, Engine.outcomes e)

let engine_episode ~report ~outs ~golden ~show ~arrivals ~stamps ~traced =
  let failed = ref 0 and lats = ref [] in
  let b = Buffer.create 65536 in
  Array.iteri
    (fun i o ->
      match o with
      | Engine.Completed { result; latency; slot; _ } ->
        if golden i ~slot result then lats := latency :: !lats else incr failed;
        Printf.bprintf b "%d:%d:%d:%s;" i latency slot (show result)
      | Engine.Shed _ | Engine.Timed_out _ | Engine.Failed _ | Engine.Pending ->
        incr failed;
        Printf.bprintf b "%d:unresolved;" i)
    outs;
  let cycles = Engine.total_cycles report in
  let s = report.Engine.per_replica.(0) in
  Printf.bprintf b "cycles=%d completed=%d shed=%d timed_out=%d busy=%d qsum=%d qmax=%d viol=%d"
    cycles (Engine.completed report) (Engine.shed report) (Engine.timed_out report)
    s.Engine.r_busy_slot_cycles s.Engine.r_queue_depth_sum s.Engine.r_queue_depth_max
    (Engine.violations report);
  let layer =
    ("host.occupancy", Engine.mean_occupancy report)
    :: ("replica.violations", float_of_int (Engine.violations report))
    ::
    (if traced then
       ("host.queue_depth_p99",
        float_of_int (backlog_p99 ~arrivals ~started:stamps.started ~cycles))
       :: stamp_layer stamps
     else [])
  in
  { attempted = Array.length outs;
    completed = Engine.completed report;
    failed = !failed;
    violations = Engine.violations report;
    cycles;
    latencies = sorted_of_list !lats;
    sim = Digest.to_hex (Digest.string (Buffer.contents b));
    layer }

(* A single-replica Engine workload: [make] builds the replica, the
   timed region serves [payloads] due at [arrivals] through it (wrapped
   and tagged when traced), [golden i ~slot result] checks job [i]. *)
let engine_run ~make ~arrivals ~payloads ~golden ~show =
  let classes = [ { Engine.cname = "default"; capacity = Array.length payloads } ] in
  let tagged = tag arrivals payloads in
  fun ~traced ->
    let replicas, build = construct 1 make in
    let stamps = new_stamps () in
    let result = ref None in
    let timed =
      if traced then begin
        let replica = wrap stamps replicas.(0) in
        fun () -> result := Some (engine_serve ~classes ~replica ~jobs:tagged ~arrivals ~traced)
      end
      else
        fun () ->
          result :=
            Some (engine_serve ~classes ~replica:replicas.(0) ~jobs:payloads ~arrivals ~traced)
    in
    let check () =
      let report, outs = Option.get !result in
      engine_episode ~report ~outs ~arrivals ~stamps ~traced ~show ~golden
    in
    { build; timed; check }

let md5_hex msg = Digest.to_hex (Digest.string msg)

(* md5_serve: one 8-thread MD5 host, reduced MEBs, no monitors, Poisson
   arrivals just under saturation (~88 jobs/kcycle for this mix). *)
let md5_jobs = 20000
let md5_rate = 0.07

let md5_serve =
  { name = "md5_serve";
    prepare =
      (fun ~seed ->
        let inp = Inputs.md5_serve ~seed ~jobs:md5_jobs ~rate:md5_rate in
        let msgs = inp.Inputs.m_messages in
        engine_run ~arrivals:inp.Inputs.m_arrivals ~payloads:msgs ~show:Fun.id
          ~make:(Md5_backend.make ~kind:Melastic.Meb.Reduced ~monitor:false ~slots:8 ())
          ~golden:(fun i ~slot:_ res -> res = md5_hex msgs.(i))) }

(* cpu_overload: one 4-thread CPU host, no monitors; looping programs
   arrive about three times faster than the pipeline retires them
   (~10.3 jobs/kcycle), into a class deep enough for the whole
   backlog. *)
let cpu_slots = 4
let cpu_imem = 1024
let cpu_dmem = 1024
let cpu_jobs = 1000
let cpu_rate = 0.03

(* Golden register file: the reference ISS runs the program as the slot
   would — assembled at the slot's imem base, r15 holding the slot's
   dmem base, the job's arguments loaded, data memory zeroed. *)
let cpu_golden (job : Cpu_backend.job) ~slot =
  let ibase = slot * (cpu_imem / cpu_slots) and dbase = slot * (cpu_dmem / cpu_slots) in
  let imem = Array.make cpu_imem 0 in
  List.iteri
    (fun k w -> imem.(ibase + k) <- w land 0xffffffff)
    (Cpu.Asm.assemble_words ~origin:ibase job.Cpu_backend.source);
  let iss = Cpu.Iss.create ~imem ~dmem_size:cpu_dmem ~threads:1 ~start_pcs:[| ibase |] in
  let regs = iss.Cpu.Iss.threads.(0).Cpu.Iss.regs in
  regs.(Cpu_backend.dmem_base_reg) <- dbase;
  List.iter (fun (r, v) -> regs.(r) <- v land 0xffffffff) job.Cpu_backend.args;
  if not (Cpu.Iss.run ~max_steps:1_000_000 iss) then failwith "cpu golden: program did not halt";
  Array.init Cpu.Isa.num_regs (fun r -> if r = 0 then 0 else regs.(r))

let show_regs regs = String.concat "," (Array.to_list (Array.map string_of_int regs))

let cpu_overload =
  { name = "cpu_overload";
    prepare =
      (fun ~seed ->
        let inp = Inputs.cpu_overload ~seed ~jobs:cpu_jobs ~rate:cpu_rate in
        let progs = inp.Inputs.c_programs in
        let golden = Hashtbl.create 64 in
        engine_run ~arrivals:inp.Inputs.c_arrivals ~payloads:progs ~show:show_regs
          ~make:
            (Cpu_backend.make ~kind:Melastic.Meb.Reduced ~monitor:false ~slots:cpu_slots
               ~imem_size:cpu_imem ~dmem_size:cpu_dmem ())
          ~golden:(fun i ~slot res ->
            let want =
              match Hashtbl.find_opt golden (i, slot) with
              | Some g -> g
              | None ->
                let g = cpu_golden progs.(i) ~slot in
                Hashtbl.add golden (i, slot) g;
                g
            in
            res = want)) }

(* ---- fleet_burst through Fleet.Frontend ---- *)

(* Four monitored 8-thread MD5 hosts; cache + coalescing, k-queues,
   ring routing and stealing all on.  Host queues are deep enough that
   no burst is shed. *)
let fleet_hosts = 4

let fleet_config =
  { Fleet.Frontend.default_config with
    n_hosts = fleet_hosts;
    classes = [ { Host.cname = "default"; capacity = 4096 } ];
    kq_segments = 256;
    kq_k = 4;
    cache_capacity = 512;
    pending_capacity = 64;
    dispatch_per_cycle = 8;
    steal_threshold = 2;
    steal_batch = 2;
    virtual_nodes = 8;
    seed = 11 }

let fleet_serve ~hosts ~jobs ~arrivals ~key ~traced =
  let t =
    Fleet.Frontend.create ~config:fleet_config ~make_host:(fun i -> hosts.(i)) ~key ()
  in
  if traced then Spans.enter k_fleet_submit;
  Array.iteri (fun i j -> ignore (Fleet.Frontend.submit t ~arrival:arrivals.(i) j)) jobs;
  if traced then begin
    Spans.leave ();
    Spans.enter k_fleet_run
  end;
  let stats = Fleet.Frontend.run t in
  if traced then Spans.leave ();
  (stats, Fleet.Frontend.outcomes t)

let fleet_episode ~(stats : Fleet.Frontend.stats) ~outs ~msgs ~stamps ~traced =
  let failed = ref 0 and lats = ref [] in
  let b = Buffer.create 65536 in
  Array.iteri
    (fun i o ->
      match o with
      | Fleet.Frontend.Done { result; latency; via } ->
        if result = md5_hex msgs.(i) then lats := latency :: !lats else incr failed;
        Printf.bprintf b "%d:%d:%s:%s;" i latency
          (match via with
           | Fleet.Frontend.Host h -> string_of_int h
           | Fleet.Frontend.Cache -> "c"
           | Fleet.Frontend.Coalesced -> "w"
           | Fleet.Frontend.Retired -> "r")
          result
      | Fleet.Frontend.Shed _ | Fleet.Frontend.Timed_out _ | Fleet.Frontend.Failed _
      | Fleet.Frontend.Pending ->
        incr failed;
        Printf.bprintf b "%d:unresolved;" i)
    outs;
  let s = stats in
  Printf.bprintf b
    "cycles=%d done=%d hits=%d coal=%d ret=%d shed=%d to=%d fail=%d disp=%d steals=%d \
     kqmax=%d kqdeq=%d kqv=%d monv=%d"
    s.s_cycles s.s_completed s.s_cache_hits s.s_coalesced s.s_retired s.s_shed s.s_timed_out
    s.s_failed s.s_dispatched s.s_steals s.s_kq_max_observed s.s_kq_dequeues s.s_kq_violations
    s.s_monitor_violations;
  Array.iter
    (fun h ->
      Printf.bprintf b " h%d:%d/%d/%d/%d/%d" h.Fleet.Frontend.h_host h.h_steps h.h_busy_slot_cycles
        h.h_queue_depth_sum h.h_queue_depth_max h.h_admitted)
    s.s_per_host;
  let req = float_of_int (max 1 s.s_requests) in
  let ratio n = float_of_int n /. req in
  let busy = Array.fold_left (fun a h -> a + h.Fleet.Frontend.h_busy_slot_cycles) 0 s.s_per_host in
  let slot_cycles =
    Array.fold_left (fun a h -> a + (h.Fleet.Frontend.h_slots * h.h_steps)) 0 s.s_per_host
  in
  let qd = Workload.Histogram.create () in
  Array.iter (fun h -> Workload.Histogram.merge_into ~into:qd h.Fleet.Frontend.h_queue_depth) s.s_per_host;
  let layer =
    [ ("fleet.cache_hit_ratio", ratio s.s_cache_hits);
      ("fleet.coalesced_ratio", ratio s.s_coalesced);
      ("fleet.dispatch_ratio", ratio s.s_dispatched);
      ("fleet.shed_ratio", ratio s.s_shed);
      ("fleet.steals", float_of_int s.s_steals);
      ("fleet.kq_max_distance", float_of_int s.s_kq_max_observed);
      ("host.occupancy", if slot_cycles = 0 then 0. else float_of_int busy /. float_of_int slot_cycles);
      ("host.queue_depth_p99", float_of_int (Workload.Histogram.percentile qd 0.99));
      ("replica.violations", float_of_int s.s_monitor_violations) ]
    @ if traced then stamp_layer stamps else []
  in
  { attempted = s.s_requests;
    completed = s.s_completed;
    failed = !failed;
    violations = Fleet.Frontend.violations s;
    cycles = s.s_cycles;
    latencies = sorted_of_list !lats;
    sim = Digest.to_hex (Digest.string (Buffer.contents b));
    layer }

let fleet_burst =
  { name = "fleet_burst";
    prepare =
      (fun ~seed ->
        let inp =
          Inputs.fleet_burst ~seed ~periods:8 ~burst_cycles:500 ~burst_rate:0.9
            ~calm_cycles:2500 ~calm_rate:0.1 ~hot_keys:64 ~hot_share:0.4
        in
        let arrivals = inp.Inputs.f_arrivals and msgs = inp.Inputs.f_messages in
        let tagged = tag arrivals msgs in
        fun ~traced ->
          let hosts, build =
            construct fleet_hosts (fun i -> Md5_backend.make ~monitor:true ~slots:8 () i)
          in
          let stamps = new_stamps () in
          let result = ref None in
          let timed =
            if traced then begin
              let hosts = Array.map (wrap stamps) hosts in
              fun () ->
                result :=
                  Some
                    (fleet_serve ~hosts ~jobs:tagged ~arrivals ~key:(fun j -> j.payload) ~traced)
            end
            else
              fun () ->
                result := Some (fleet_serve ~hosts ~jobs:msgs ~arrivals ~key:Fun.id ~traced)
          in
          let check () =
            let stats, outs = Option.get !result in
            fleet_episode ~stats ~outs ~msgs ~stamps ~traced
          in
          { build; timed; check }) }

let all = [ md5_serve; cpu_overload; fleet_burst ]
