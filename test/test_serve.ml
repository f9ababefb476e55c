(* Tests for the serving engine: slot refill under monitor
   supervision, deadline timeout and slot reclamation, queue-full
   shedding, and replica-count invariance. *)

let md5_engine ?classes ?replicas ~monitor ~slots () =
  Serve.Engine.create ?classes ?replicas
    ~make_replica:(Serve.Md5_backend.make ~monitor ~slots ())
    ()

(* More jobs than slots, arrivals spread out, so slots are freed and
   refilled mid-run; the conservation scoreboard (per-thread FIFO
   against the reference digest) proves refill never loses, duplicates
   or reorders a thread's block stream. *)
let test_md5_refill_conserves () =
  let t = md5_engine ~monitor:true ~slots:4 () in
  let jobs =
    Array.init 12 (fun i -> Printf.sprintf "message %d: %s" i (String.make (i * 7) 'x'))
  in
  Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 5) t m)) jobs;
  let report = Serve.Engine.run ~domains:1 t in
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report);
  Alcotest.(check int) "completed" 12 (Serve.Engine.completed report);
  Array.iteri
    (fun i m ->
      match Serve.Engine.outcome t i with
      | Serve.Engine.Completed { result; _ } ->
        Alcotest.(check string) "digest" (Md5.Md5_ref.digest m) result
      | _ -> Alcotest.fail "expected completion")
    jobs

(* A runaway (non-halting) program blows its deadline; the engine
   kills it and the very same slot must then serve another job to
   completion. *)
let test_cpu_deadline_frees_slot () =
  let t =
    Serve.Engine.create
      ~make_replica:(Serve.Cpu_backend.make ~monitor:true ~slots:1 ())
      ()
  in
  let runaway = { Serve.Cpu_backend.source = "loop: j loop"; args = [] } in
  let good =
    { Serve.Cpu_backend.source = "li r1, 41\n addi r1, r1, 1\n halt"; args = [] }
  in
  let id_bad = Serve.Engine.submit ~deadline:200 t runaway in
  let id_good = Serve.Engine.submit t good in
  let report = Serve.Engine.run ~domains:1 ~max_cycles:20_000 t in
  (match Serve.Engine.outcome t id_bad with
   | Serve.Engine.Timed_out { tries } -> Alcotest.(check int) "tries" 1 tries
   | _ -> Alcotest.fail "runaway should time out");
  (match Serve.Engine.outcome t id_good with
   | Serve.Engine.Completed { result; slot; _ } ->
     Alcotest.(check int) "slot reused" 0 slot;
     Alcotest.(check int) "r1" 42 result.(1)
   | _ -> Alcotest.fail "good job should complete in the reclaimed slot");
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* Retry budget: first attempt times out, re-admission succeeds (the
   deadline is generous the second time only because the queue ahead
   of it has drained). *)
let test_retry_budget () =
  let t =
    Serve.Engine.create
      ~make_replica:(Serve.Md5_backend.make ~monitor:false ~slots:1 ())
      ()
  in
  (* Slot busy with a long multi-block message, so the short-deadline
     job times out queued, then completes on retry. *)
  ignore (Serve.Engine.submit t (String.make 300 'a'));
  let id = Serve.Engine.submit ~deadline:40 ~retries:3 t "hello" in
  ignore (Serve.Engine.run ~domains:1 t);
  (match Serve.Engine.outcome t id with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "hello") result
   | Serve.Engine.Timed_out { tries } ->
     Alcotest.(check int) "all retries burned" 4 tries
   | _ -> Alcotest.fail "expected completion or exhausted retries")

(* A capacity-1 class with simultaneous arrivals: one admitted, the
   overflow shed at admission. *)
let test_full_queue_sheds () =
  let classes = [ { Serve.Engine.cname = "tiny"; capacity = 1 } ] in
  let t = md5_engine ~classes ~monitor:false ~slots:1 () in
  (* "a" is admitted at cycle 0 and refills the slot the same cycle;
     at cycle 1 the slot is busy, so "b" occupies the queue and the
     rest overflow. *)
  let ids =
    List.mapi
      (fun i m ->
        Serve.Engine.submit ~cls:"tiny" ~arrival:(min i 1) t m)
      [ "a"; "b"; "c"; "d" ]
  in
  let report = Serve.Engine.run ~domains:1 t in
  Alcotest.(check int) "shed" 2 (Serve.Engine.shed report);
  Alcotest.(check int) "completed" 2 (Serve.Engine.completed report);
  (match List.map (Serve.Engine.outcome t) ids with
   | [ Completed _; Completed _; Shed _; Shed _ ] -> ()
   | _ -> Alcotest.fail "first two admitted, rest shed")

(* The replica-sharding invariant: N replicas return byte-identical
   per-job outcomes to 1 replica (ids route deterministically and each
   replica sees the same sub-stream it would see alone). *)
let test_replica_invariance () =
  let jobs = Array.init 10 (fun i -> Printf.sprintf "job-%d" i) in
  let outcomes ~replicas =
    let t = md5_engine ~replicas ~monitor:false ~slots:2 () in
    Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 3) t m)) jobs;
    ignore (Serve.Engine.run ~domains:1 t);
    Array.map
      (fun o ->
        match o with
        | Serve.Engine.Completed { result; _ } -> result
        | _ -> "<unresolved>")
      (Serve.Engine.outcomes t)
  in
  let one = outcomes ~replicas:1 in
  let three = outcomes ~replicas:3 in
  Alcotest.(check (array string)) "same results" one three;
  Array.iteri
    (fun i m -> Alcotest.(check string) "reference" (Md5.Md5_ref.digest m) one.(i))
    jobs

(* Whole-queue deadline scan: an expired entry sitting BEHIND a fresh
   one, in more than one class queue at once, must still be found and
   timed out (engine step 2 scans every entry, not just the head). *)
let test_queued_expiry_mid_queue () =
  let classes =
    [ { Serve.Engine.cname = "a"; capacity = 8 };
      { Serve.Engine.cname = "b"; capacity = 8 } ]
  in
  let t = md5_engine ~classes ~monitor:true ~slots:1 () in
  (* Pin the only slot with a long multi-block job... *)
  ignore (Serve.Engine.submit ~cls:"a" t (String.make 300 'x'));
  (* ...then queue, per class, a patient job followed by a job whose
     deadline expires while it waits behind the patient one. *)
  let keep_a = Serve.Engine.submit ~cls:"a" ~arrival:1 t "keep-a" in
  let dead_a = Serve.Engine.submit ~cls:"a" ~arrival:2 ~deadline:5 t "dead-a" in
  let keep_b = Serve.Engine.submit ~cls:"b" ~arrival:1 t "keep-b" in
  let dead_b = Serve.Engine.submit ~cls:"b" ~arrival:2 ~deadline:5 t "dead-b" in
  let report = Serve.Engine.run ~domains:1 t in
  List.iter
    (fun id ->
      match Serve.Engine.outcome t id with
      | Serve.Engine.Timed_out { tries } -> Alcotest.(check int) "tries" 1 tries
      | _ -> Alcotest.fail "mid-queue entry should expire")
    [ dead_a; dead_b ];
  List.iter
    (fun (id, m) ->
      match Serve.Engine.outcome t id with
      | Serve.Engine.Completed { result; _ } ->
        Alcotest.(check string) "digest" (Md5.Md5_ref.digest m) result
      | _ -> Alcotest.fail "patient job should complete")
    [ (keep_a, "keep-a"); (keep_b, "keep-b") ];
  Alcotest.(check int) "timed out" 2 (Serve.Engine.timed_out report);
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* A retry re-admission can race shed-when-full: the running job blows
   its deadline, has retry budget left, but its class queue filled up
   behind it — the retry is shed at admission, not timed out, and the
   job that filled the queue is served. *)
let test_retry_races_shed () =
  let classes = [ { Serve.Engine.cname = "tiny"; capacity = 1 } ] in
  let t = md5_engine ~classes ~monitor:true ~slots:1 () in
  let racer =
    Serve.Engine.submit ~cls:"tiny" ~deadline:20 ~retries:1 t
      (String.make 300 'r')
  in
  let filler = Serve.Engine.submit ~cls:"tiny" ~arrival:1 t "filler" in
  let report = Serve.Engine.run ~domains:1 t in
  (match Serve.Engine.outcome t racer with
   | Serve.Engine.Shed { at } -> Alcotest.(check int) "shed at expiry" 20 at
   | _ -> Alcotest.fail "retry into a full queue should shed");
  (match Serve.Engine.outcome t filler with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "filler") result
   | _ -> Alcotest.fail "queue occupant should complete");
  Alcotest.(check int) "shed" 1 (Serve.Engine.shed report);
  Alcotest.(check int) "timed out" 0 (Serve.Engine.timed_out report);
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* deadline=1 boundary: 0 is rejected outright; 1 means "complete
   within a cycle of admission", which no multi-cycle job can — every
   attempt (queued or running) expires on the next cycle, burning the
   whole retry budget, and the engine keeps serving afterwards. *)
let test_deadline_one_boundary () =
  let t = md5_engine ~monitor:true ~slots:1 () in
  Alcotest.check_raises "deadline 0 rejected"
    (Invalid_argument "Engine.submit: deadline must be >= 1") (fun () ->
      ignore (Serve.Engine.submit ~deadline:0 t "no"));
  let hopeless = Serve.Engine.submit ~deadline:1 ~retries:2 t "hopeless" in
  let after = Serve.Engine.submit ~arrival:1 t "after" in
  let report = Serve.Engine.run ~domains:1 t in
  (match Serve.Engine.outcome t hopeless with
   | Serve.Engine.Timed_out { tries } ->
     Alcotest.(check int) "all attempts burned" 3 tries
   | _ -> Alcotest.fail "deadline=1 job should exhaust its budget");
  (match Serve.Engine.outcome t after with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "after") result
   | _ -> Alcotest.fail "engine should keep serving after the churn");
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

let test_poisson_load () =
  let rng = Random.State.make [| 7 |] in
  let arr = Serve.Engine.Load.poisson ~rng ~rate:0.05 ~count:200 in
  Alcotest.(check int) "count" 200 (Array.length arr);
  Array.iteri
    (fun i a ->
      if i > 0 then
        Alcotest.(check bool) "non-decreasing" true (arr.(i - 1) <= a))
    arr;
  (* Mean inter-arrival should be near 1/rate = 20 cycles. *)
  let span = float_of_int arr.(199) /. 199. in
  Alcotest.(check bool) "mean inter-arrival sane" true (span > 10. && span < 40.)

(* The packed-module path (create_b over Backend_intf.t) must be
   observationally identical to the closure path (create over
   make_replica): same job set, same per-job results. *)
let test_create_b_matches_create () =
  let jobs =
    Array.init 10 (fun i -> Printf.sprintf "job %d %s" i (String.make (i * 3) 'y'))
  in
  let run t =
    Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 3) t m)) jobs;
    ignore (Serve.Engine.run ~domains:1 t);
    Array.init (Array.length jobs) (fun i ->
        match Serve.Engine.outcome t i with
        | Serve.Engine.Completed { result; latency; _ } -> (result, latency)
        | _ -> Alcotest.fail "expected completion")
  in
  let via_closure = run (md5_engine ~monitor:false ~slots:2 ()) in
  let via_module =
    run
      (Serve.Engine.create_b
         ~backend:(Serve.Md5_backend.backend ~monitor:false ~slots:2 ())
         ())
  in
  Array.iteri
    (fun i (r, l) ->
      let r', l' = via_module.(i) in
      Alcotest.(check string) "result" r r';
      Alcotest.(check int) "latency" l l')
    via_closure

(* Packed backends carry their identity and monitor surface: the name
   reflects the composition, and the probe list of a fabric-wrapped
   backend is the fabric's channels plus the core's. *)
let test_packed_backend_surface () =
  let core = Serve.Md5_backend.backend ~slots:2 () in
  Alcotest.(check string) "core name" "md5" (Serve.Backend_intf.name core);
  Alcotest.(check (list string)) "core probes"
    Serve.Md5_backend.monitored_probes
    (Serve.Backend_intf.probes core);
  let topology = Noc.Mesh { x = 2; y = 2 } in
  let noc = Serve.Noc_backend.backend ~topology core in
  Alcotest.(check string) "composed name" "noc-mesh2x2-md5"
    (Serve.Backend_intf.name noc);
  Alcotest.(check (list string)) "composed probes"
    (Noc.probe_names (Noc.plan topology) @ Serve.Md5_backend.monitored_probes)
    (Serve.Backend_intf.probes noc);
  Alcotest.check_raises "malformed topology rejected"
    (Invalid_argument "Noc: mesh sides must be >= 1")
    (fun () ->
      ignore (Serve.Noc_backend.backend ~topology:(Noc.Mesh { x = 0; y = 2 }) core))

let test_latency_histogram () =
  (* The engine's latency metric is a streaming histogram: the merged
     report view must agree with the per-replica counts and yield
     sane quantiles. *)
  let t = md5_engine ~monitor:false ~slots:2 () in
  let jobs = Array.init 8 (fun i -> Printf.sprintf "lat-%d" i) in
  Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 4) t m)) jobs;
  let report = Serve.Engine.run ~domains:1 t in
  let lat = Serve.Engine.latency report in
  Alcotest.(check int) "one sample per completion" 8
    (Workload.Histogram.count lat);
  let p50 = Workload.Histogram.percentile lat 0.5 in
  let p99 = Workload.Histogram.percentile lat 0.99 in
  Alcotest.(check bool) "p50 positive" true (p50 > 0);
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p99);
  Alcotest.(check bool) "p99 bounded by max" true
    (p99 <= Workload.Histogram.max_value lat)

(* Regression: the queue-depth gauge samples the per-cycle PEAK
   backlog, so a job that transits the queue within a single cycle
   (admitted and refilled before the sample point) still registers —
   the gauge used to read 0 for an unloaded host, hiding retry
   re-admissions that race the refill the same way. *)
let test_queue_depth_gauge_counts_transients () =
  let t = md5_engine ~monitor:false ~slots:1 () in
  ignore (Serve.Engine.submit t "solo");
  let report = Serve.Engine.run ~domains:1 t in
  let s = report.Serve.Engine.per_replica.(0) in
  Alcotest.(check int) "transit registers in the gauge" 1
    s.Serve.Engine.r_queue_depth_max;
  (* And a retry re-admission is gauged like a fresh arrival: with the
     slot pinned, the retried job re-enters the queue and the gauge
     must see both it and the occupant's own queueing. *)
  let t = md5_engine ~monitor:false ~slots:1 () in
  ignore (Serve.Engine.submit t (String.make 300 'p'));
  ignore (Serve.Engine.submit ~deadline:30 ~retries:2 t "retry-me");
  let report = Serve.Engine.run ~domains:1 t in
  let s = report.Serve.Engine.per_replica.(0) in
  Alcotest.(check bool) "re-admissions counted" true
    (s.Serve.Engine.r_retries >= 1);
  Alcotest.(check bool) "gauge saw the retried job" true
    (s.Serve.Engine.r_queue_depth_max >= 1)

(* ---- Serve.Host against a scan-every-cycle reference ---- *)

(* A scripted replica: a payload [p >= 1] is its own service time in
   cycles, the result is a pure function of it, and [cancel] frees the
   slot at once. *)
let scripted_result p = (2 * p) + 1

let scripted_replica ~slots : (int, int) Serve.Backend_intf.replica =
  let cycle = ref 0 in
  let busy = Array.make slots None in (* (payload, completion cycle) *)
  let finished = ref [] in
  { slots;
    slot_free = (fun s -> busy.(s) = None);
    start =
      (fun ~slot p ->
        if busy.(slot) <> None then invalid_arg "scripted: slot busy";
        busy.(slot) <- Some (p, !cycle + p));
    cancel = (fun ~slot -> busy.(slot) <- None);
    step =
      (fun () ->
        incr cycle;
        for s = 0 to slots - 1 do
          match busy.(s) with
          | Some (p, at) when at <= !cycle ->
            finished := (s, scripted_result p) :: !finished;
            busy.(s) <- None
          | _ -> ()
        done);
    completions =
      (fun () ->
        let l = List.rev !finished in
        finished := [];
        l);
    cycle_no = (fun () -> !cycle);
    finish = ignore;
    violations = (fun () -> 0) }

(* Reference host: [Serve.Host]'s queues, slot allocator and metrics,
   with queued expiry scanning every entry on every cycle — the rule
   the watermark must reproduce exactly. *)
module Ref_host = struct
  open Serve.Host

  type t = {
    caps : int array;
    replica : (int, int) Serve.Backend_intf.replica;
    queues : int queued Queue.t array;
    running : int queued option array;
    mutable rr_cls : int;
    mutable steps : int;
    mutable retries : int;
    mutable busy_sum : int;
    mutable depth_sum : int;
    mutable depth_max : int;
  }

  let create caps replica =
    { caps;
      replica;
      queues = Array.map (fun _ -> Queue.create ()) caps;
      running = Array.make replica.Serve.Backend_intf.slots None;
      rr_cls = 0;
      steps = 0;
      retries = 0;
      busy_sum = 0;
      depth_sum = 0;
      depth_max = 0 }

  let queue_depth t = Array.fold_left (fun n q -> n + Queue.length q) 0 t.queues

  let enqueue t e =
    let q = t.queues.(e.q_cls) in
    Queue.length q < t.caps.(e.q_cls) && (Queue.add e q; true)

  let admit t ~cls ?deadline ~retries ~id payload =
    enqueue t
      { q_id = id;
        q_cls = cls;
        q_payload = payload;
        q_arrival = t.replica.cycle_no ();
        q_eff_arrival = t.replica.cycle_no ();
        q_deadline = deadline;
        q_retries = retries;
        q_tries = 0 }

  let steal t =
    let deepest = ref (-1) and depth = ref 0 in
    Array.iteri
      (fun i q ->
        if Queue.length q > !depth then begin
          deepest := i;
          depth := Queue.length q
        end)
      t.queues;
    if !deepest < 0 then None
    else begin
      let q = t.queues.(!deepest) in
      let kept = Queue.create () in
      for _ = 2 to Queue.length q do Queue.add (Queue.pop q) kept done;
      let youngest = Queue.pop q in
      Queue.transfer kept q;
      Some youngest
    end

  let complete_external t ~id =
    let found = ref false in
    Array.iter
      (fun q ->
        let kept = Queue.create () in
        Queue.iter (fun e -> if e.q_id = id then found := true else Queue.add e kept) q;
        Queue.clear q;
        Queue.transfer kept q)
      t.queues;
    !found

  let expired now e =
    match e.q_deadline with Some d -> now - e.q_eff_arrival >= d | None -> false

  let expire t now e events =
    if e.q_tries < e.q_retries then begin
      t.retries <- t.retries + 1;
      let e = { e with q_eff_arrival = now; q_tries = e.q_tries + 1 } in
      if not (enqueue t e) then events := Shed { id = e.q_id; at = now } :: !events
    end
    else events := Timed_out { id = e.q_id; tries = e.q_tries + 1 } :: !events

  let pick t =
    let nc = Array.length t.queues in
    let rec go k =
      if k >= nc then None
      else
        let ci = (t.rr_cls + k) mod nc in
        if Queue.is_empty t.queues.(ci) then go (k + 1)
        else begin
          t.rr_cls <- (ci + 1) mod nc;
          Some (Queue.pop t.queues.(ci))
        end
    in
    go 0

  let busy t = Array.fold_left (fun n r -> if r = None then n else n + 1) 0 t.running

  let step t =
    let events = ref [] in
    let now = t.replica.cycle_no () in
    Array.iter
      (fun q ->
        for _ = 1 to Queue.length q do
          let e = Queue.pop q in
          if expired now e then expire t now e events else Queue.add e q
        done)
      t.queues;
    let depth_at_refill = queue_depth t in
    Array.iteri
      (fun s r ->
        if r = None && t.replica.slot_free s then
          match pick t with
          | Some e ->
            t.replica.start ~slot:s e.q_payload;
            t.running.(s) <- Some e
          | None -> ())
      t.running;
    Array.iteri
      (fun s r ->
        match r with
        | Some e when expired now e ->
          t.replica.cancel ~slot:s;
          t.running.(s) <- None;
          expire t now e events
        | _ -> ())
      t.running;
    let depth = max depth_at_refill (queue_depth t) in
    t.busy_sum <- t.busy_sum + busy t;
    t.depth_sum <- t.depth_sum + depth;
    t.depth_max <- max t.depth_max depth;
    t.replica.step ();
    t.steps <- t.steps + 1;
    List.iter
      (fun (s, result) ->
        match t.running.(s) with
        | Some e ->
          let latency = t.replica.cycle_no () - e.q_arrival in
          events := Completed { id = e.q_id; result; latency; slot = s } :: !events;
          t.running.(s) <- None
        | None -> ())
      (t.replica.completions ());
    List.rev !events

  let outstanding t =
    let ids = ref [] in
    Array.iter (Queue.iter (fun e -> ids := e.q_id :: !ids)) t.queues;
    Array.iter (function Some e -> ids := e.q_id :: !ids | None -> ()) t.running;
    List.sort compare !ids

  let metrics t =
    { m_steps = t.steps;
      m_busy_slot_cycles = t.busy_sum;
      m_queue_depth_sum = t.depth_sum;
      m_queue_depth_max = t.depth_max;
      m_retries = t.retries }
end

type host_op =
  | Admit of { cls : int; deadline : int option; retries : int; payload : int }
  | Steal  (* park the stolen entry *)
  | Readmit  (* hand the oldest parked entry back through admit_queued *)
  | Retire of int  (* complete_external on an id admitted so far *)

let show_op = function
  | Admit { cls; deadline; retries; payload } ->
    Printf.sprintf "admit(c%d,%s,r%d,p%d)" cls
      (match deadline with Some d -> "d" ^ string_of_int d | None -> "-")
      retries payload
  | Steal -> "steal"
  | Readmit -> "readmit"
  | Retire k -> Printf.sprintf "retire(%d)" k

(* Exactness of the queued-deadline watermark: random admissions with
   deadlines and retry budgets, interleaved with steals, migrated
   re-admissions (possibly already past their deadline) and external
   completions, must produce the reference's events, queue depth and
   outstanding set on every cycle, and its metrics at the end. *)
let prop_host_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 2 3 >>= fun ncls ->
      list_repeat ncls (int_range 1 8) >>= fun caps ->
      int_range 1 4 >>= fun slots ->
      let admit =
        map4
          (fun cls deadline retries payload -> Admit { cls; deadline; retries; payload })
          (int_bound (ncls - 1))
          (frequency [ (1, return None); (2, map Option.some (int_range 1 20)) ])
          (int_range 0 2) (int_range 1 12)
      in
      let op =
        frequency
          [ (6, admit); (1, return Steal); (1, return Readmit);
            (1, map (fun k -> Retire k) (int_bound 1000)) ]
      in
      list_size (int_range 1 80) (list_size (int_range 0 3) op) >>= fun cycles ->
      return (caps, slots, cycles))
  in
  let print (caps, slots, cycles) =
    Printf.sprintf "caps=[%s] slots=%d\n%s"
      (String.concat ";" (List.map string_of_int caps))
      slots
      (String.concat "\n"
         (List.mapi
            (fun c ops -> Printf.sprintf "%d: %s" c (String.concat " " (List.map show_op ops)))
            cycles))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"host watermark matches scan-every-cycle reference"
       (QCheck.make ~print gen)
       (fun (caps, slots, cycles) ->
         let classes =
           List.mapi (fun i capacity -> { Serve.Host.cname = string_of_int i; capacity }) caps
         in
         let h = Serve.Host.create ~classes (scripted_replica ~slots) in
         let r = Ref_host.create (Array.of_list caps) (scripted_replica ~slots) in
         let parked = Queue.create () and next_id = ref 0 in
         let agree cycle what ok =
           if not ok then QCheck.Test.fail_reportf "cycle %d: %s differs" cycle what
         in
         let apply cycle = function
           | Admit { cls; deadline; retries; payload } ->
             let id = !next_id in
             incr next_id;
             let now = Serve.Host.cycle_no h in
             agree cycle "admit"
               (Serve.Host.admit ~cls ?deadline ~retries h ~id ~arrival:now payload
               = Ref_host.admit r ~cls ?deadline ~retries ~id payload)
           | Steal ->
             let got = Serve.Host.steal h in
             agree cycle "steal" (got = Ref_host.steal r);
             Option.iter (fun e -> Queue.add e parked) got
           | Readmit ->
             if not (Queue.is_empty parked) then begin
               let e = Queue.pop parked in
               agree cycle "admit_queued"
                 (Serve.Host.admit_queued h e = Ref_host.enqueue r e)
             end
           | Retire k ->
             if !next_id > 0 then begin
               let id = k mod !next_id in
               agree cycle "complete_external"
                 (Serve.Host.complete_external h ~id = Ref_host.complete_external r ~id)
             end
         in
         let step cycle =
           agree cycle "events" (Serve.Host.step h = Ref_host.step r);
           agree cycle "queue_depth" (Serve.Host.queue_depth h = Ref_host.queue_depth r);
           agree cycle "outstanding" (Serve.Host.outstanding h = Ref_host.outstanding r)
         in
         List.iteri
           (fun cycle ops ->
             List.iter (apply cycle) ops;
             step cycle)
           cycles;
         (* drain: deadlines keep firing on what is still queued *)
         for cycle = List.length cycles to List.length cycles + 40 do
           step cycle
         done;
         Serve.Host.metrics h = Ref_host.metrics r))

(* The queued-expiry cost gate, checkable without a PMU: with every
   slot busy and no deadline set, a host step allocates the same at a
   backlog of 10 as at a backlog of 1 000.  A per-cycle scan that
   re-adds every queued entry costs ~3 words per entry per step. *)
let test_step_alloc_flat_in_backlog () =
  let words_per_step backlog =
    let classes = [ { Serve.Host.cname = "deep"; capacity = 2_000 } ] in
    let h = Serve.Host.create ~classes (scripted_replica ~slots:4) in
    (* four jobs that outlast the measurement pin every slot *)
    for id = 0 to 3 do
      ignore (Serve.Host.admit h ~id ~arrival:0 1_000_000)
    done;
    ignore (Serve.Host.step h);
    for id = 4 to backlog + 3 do
      ignore (Serve.Host.admit h ~id ~arrival:1 1)
    done;
    Alcotest.(check int) "slots busy" 4 (Serve.Host.busy_slots h);
    Alcotest.(check int) "backlog" backlog (Serve.Host.queue_depth h);
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      ignore (Serve.Host.step h)
    done;
    (Gc.minor_words () -. before) /. 1_000.
  in
  let shallow = words_per_step 10 in
  let deep = words_per_step 1_000 in
  Alcotest.(check (float 1.)) "minor words per step, backlog 10 vs 1000" shallow deep

let suite =
  ( "serve",
    [ Alcotest.test_case "md5 refill conserves" `Quick test_md5_refill_conserves;
      Alcotest.test_case "cpu deadline frees slot" `Quick test_cpu_deadline_frees_slot;
      Alcotest.test_case "retry budget" `Quick test_retry_budget;
      Alcotest.test_case "full queue sheds" `Quick test_full_queue_sheds;
      Alcotest.test_case "queued expiry mid-queue" `Quick
        test_queued_expiry_mid_queue;
      Alcotest.test_case "retry races shed" `Quick test_retry_races_shed;
      Alcotest.test_case "deadline=1 boundary" `Quick
        test_deadline_one_boundary;
      Alcotest.test_case "replica invariance" `Quick test_replica_invariance;
      Alcotest.test_case "create_b matches create" `Quick
        test_create_b_matches_create;
      Alcotest.test_case "packed backend surface" `Quick
        test_packed_backend_surface;
      Alcotest.test_case "poisson load" `Quick test_poisson_load;
      Alcotest.test_case "latency histogram" `Quick test_latency_histogram;
      Alcotest.test_case "queue-depth gauge transients" `Quick
        test_queue_depth_gauge_counts_transients;
      prop_host_matches_reference;
      Alcotest.test_case "host step allocation flat in backlog" `Quick
        test_step_alloc_flat_in_backlog ] )
