(* Attachable runtime checkers for the MT-elastic protocol invariants.

   The paper's correctness argument rests on a handful of invariants
   that are otherwise implicit in the component implementations: at
   most one valid(i) per cycle on a multithreaded channel (Section
   III), per-thread persistence/stability of a stalled transfer, token
   conservation and per-thread FIFO order through MEB pipelines
   (Section IV — the reduced MEB is only correct if no thread ever
   loses or duplicates a word), global progress, and barrier liveness
   (Section V).  A [Monitor.t] rides on any simulator backend through
   a [Melastic.Profile] attached to the shared [Hw.Sampler] per-cycle
   loop: every channel a checker watches is registered with the
   profile, so the same pass that feeds the invariant checks also
   accumulates the channel's activity/stall/backpressure statistics
   ([Monitor.profile]).  Checkers read the [Mt_channel.probe]/
   [source]/[sink] export points (<name>_valid/_ready/_fire/_data)
   plus the barrier's named state probes; each violated invariant
   produces a structured report (checker, cycle, channel, thread,
   expected/actual) instead of a silent wrong answer.

   Every existing workload becomes a correctness test by attaching a
   monitor next to its driver — see [bench/exp_check.ml] and
   [test/test_monitor.ml]. *)

type violation = {
  checker : string;
  cycle : int;
  channel : string;
  thread : int option;
  expected : string;
  actual : string;
}

type t = {
  sampler : Hw.Sampler.t;
  profile : Melastic.Profile.t;
  max_reports : int; (* per checker instance; the rest are counted *)
  mutable violations : violation list; (* newest first *)
  mutable suppressed : int;
  mutable finalizers : (unit -> unit) list;
  mutable finalized : bool;
}

let create ?(max_reports = 10) sim =
  let sampler = Hw.Sampler.attach sim in
  { sampler;
    profile = Melastic.Profile.attach sampler;
    max_reports;
    violations = [];
    suppressed = 0;
    finalizers = [];
    finalized = false }

let sampler t = t.sampler
let profile t = t.profile

(* Each checker instance gets its own budget counter so one noisy
   checker cannot silence the others. *)
let reporter t =
  let count = ref 0 in
  fun ~checker ~cycle ~channel ?thread ~expected ~actual () ->
    incr count;
    if !count <= t.max_reports then
      t.violations <-
        { checker; cycle; channel; thread; expected; actual } :: t.violations
    else t.suppressed <- t.suppressed + 1

(* The low [threads] bits: the per-thread part of a channel vector. *)
let thread_mask threads = max_int lsr (Bits.max_int_width - threads)

let has_thread v i = v land (1 lsl i) <> 0

(* ---- (a) one-hot valid ---- *)

(* Section III: the channel carries one data word, so at most one
   thread may assert valid in any cycle.  The checker shares the
   channel watch (and thus the per-cycle value refresh) with the
   profile — attaching a monitor also yields activity statistics. *)
let check_one_hot t ~name ~threads =
  let pr = Melastic.Profile.watch_channel t.profile ~name ~threads in
  let report = reporter t in
  let mask = thread_mask threads in
  Melastic.Profile.on_sample t.profile (fun p ->
      let v = Melastic.Profile.valid pr land mask in
      if v land (v - 1) <> 0 then
        report ~checker:"one-hot" ~cycle:(Melastic.Profile.cycle p) ~channel:name
          ~expected:"at most one valid(i) asserted"
          ~actual:("valid = 0b" ^ Bits.to_binary_string (Bits.of_int ~width:threads v))
          ())

(* ---- (b) persistence / data stability under stall ---- *)

(* Baseline elastic persistence: valid(i) high and ready(i) low means
   the same thread must re-offer the same word next cycle.  On a
   multithreaded channel behind a Valid_only arbiter the grant may
   legally rotate to another waiting thread instead, so the default
   (relaxed) rule is: the stalled thread either persists with stable
   data or cedes the channel to some other valid thread.  [strict]
   restores the single-thread rule (no retraction at all); [gated]
   drops the cede requirement for channels whose valid is further
   masked downstream of the arbiter (a barrier phase, a branch
   condition): rotation onto a masked thread legally leaves the
   channel with no valid at all, so only re-offer data stability is
   checkable. *)
let check_stability ?(strict = false) ?(gated = false) t ~name ~threads =
  let pr = Melastic.Profile.watch_channel ~data:true t.profile ~name ~threads in
  let report = reporter t in
  let mask = thread_mask threads in
  (* Last cycle's sample; [primed] once there is one. *)
  let primed = ref false and pv = ref 0 and pready = ref 0 and pd = ref Bits.gnd in
  Melastic.Profile.on_sample t.profile (fun p ->
      let v = Melastic.Profile.valid pr in
      let r = Melastic.Profile.ready pr in
      let d = Melastic.Profile.data pr in
      let stalled = !pv land lnot !pready land mask in
      if !primed && stalled <> 0 then begin
        let cycle = Melastic.Profile.cycle p in
        for i = 0 to threads - 1 do
          if has_thread stalled i then
            if has_thread v i then begin
              if not (Bits.equal d !pd) then
                report ~checker:"stability" ~cycle ~channel:name ~thread:i
                  ~expected:("stable data 0x" ^ Bits.to_hex_string !pd)
                  ~actual:("data changed to 0x" ^ Bits.to_hex_string d)
                  ()
            end
            else if strict then
              report ~checker:"stability" ~cycle ~channel:name ~thread:i
                ~expected:"valid(i) persists until ready(i)"
                ~actual:"valid retracted while stalled" ()
            else if (not gated) && v = 0 then
              report ~checker:"stability" ~cycle ~channel:name ~thread:i
                ~expected:"stalled valid persists or another thread is granted"
                ~actual:"all valids dropped with the token still untransferred"
                ()
        done
      end;
      primed := true;
      pv := v;
      pready := r;
      pd := d)

(* ---- (c) per-thread token conservation scoreboard ---- *)

(* Watches a producer probe [src] and a consumer probe [snk]: every
   token firing at [src] must fire at [snk] exactly once, per thread,
   in order, optionally transformed by [transform] (the circuit's
   reference function — identity for plain buffer pipelines, the RFC
   1321 compression for MD5, ...).  [max_in_flight] cross-checks the
   outstanding-token count against the slot capacity of the buffers
   between the probes (see [Meb.capacity]). *)
let check_conservation ?transform ?(compare_data = true) ?max_in_flight
    ?(expect_drained = false) t ~src ~snk ~threads =
  let transform = match transform with Some f -> f | None -> fun b -> b in
  let src_pr = Melastic.Profile.watch_channel ~data:true t.profile ~name:src ~threads in
  let snk_pr = Melastic.Profile.watch_channel ~data:true t.profile ~name:snk ~threads in
  let report = reporter t in
  let channel = src ^ "->" ^ snk in
  let mask = thread_mask threads in
  let queues = Array.init threads (fun _ -> Queue.create ()) in
  let outstanding = ref 0 in
  let over_bound = ref false in
  Melastic.Profile.on_sample t.profile (fun p ->
      let cycle = Melastic.Profile.cycle p in
      let sf = Melastic.Profile.fire src_pr land mask in
      if sf <> 0 then begin
        let expected = transform (Melastic.Profile.data src_pr) in
        for i = 0 to threads - 1 do
          if has_thread sf i then begin
            Queue.add expected queues.(i);
            incr outstanding
          end
        done
      end;
      let kf = Melastic.Profile.fire snk_pr land mask in
      if kf <> 0 then begin
        let kd = Melastic.Profile.data snk_pr in
        for i = 0 to threads - 1 do
          if has_thread kf i then
            if Queue.is_empty queues.(i) then
              report ~checker:"conservation" ~cycle ~channel ~thread:i
                ~expected:"every sink token matches an outstanding source token"
                ~actual:"token delivered with an empty scoreboard (duplication)"
                ()
            else begin
              let expected = Queue.pop queues.(i) in
              decr outstanding;
              if compare_data && not (Bits.equal kd expected) then
                report ~checker:"conservation" ~cycle ~channel ~thread:i
                  ~expected:("0x" ^ Bits.to_hex_string expected ^ " (FIFO order)")
                  ~actual:("0x" ^ Bits.to_hex_string kd)
                  ()
            end
        done
      end;
      match max_in_flight with
      | Some bound ->
        if !outstanding > bound then begin
          (* Report once per excursion above the bound, not per cycle. *)
          if not !over_bound then
            report ~checker:"conservation" ~cycle ~channel
              ~expected:
                (Printf.sprintf "at most %d tokens in flight (buffer capacity)"
                   bound)
              ~actual:(Printf.sprintf "%d outstanding" !outstanding)
              ();
          over_bound := true
        end
        else over_bound := false
      | None -> ());
  t.finalizers <-
    (fun () ->
      if expect_drained then
        Array.iteri
          (fun i q ->
            if not (Queue.is_empty q) then
              report ~checker:"conservation"
                ~cycle:(Hw.Sampler.cycle t.sampler) ~channel ~thread:i
                ~expected:"all injected tokens delivered (drained run)"
                ~actual:
                  (Printf.sprintf "%d token(s) lost in flight" (Queue.length q))
                ())
          queues)
    :: t.finalizers

(* ---- (d) deadlock / starvation watchdog ---- *)

(* No transfer on any watched channel for [timeout] cycles while
   [pending] reports outstanding work is a deadlock; a single thread
   making no transfer for [starvation_timeout] cycles while
   [thread_pending] holds is starvation (the fairness the per-thread
   handshakes are supposed to provide, Section III.A). *)
let check_watchdog ?(timeout = 1000) ?starvation_timeout ?thread_pending
    ?(pending = fun () -> true) t ~channels ~threads =
  let probes =
    Array.of_list
      (List.map
         (fun name -> Melastic.Profile.watch_channel t.profile ~name ~threads)
         channels)
  in
  let report = reporter t in
  let channel = String.concat "," channels in
  let last_any = ref (-1) in
  let last_thread = Array.make threads (-1) in
  Melastic.Profile.on_sample t.profile (fun p ->
      let cycle = Melastic.Profile.cycle p in
      for k = 0 to Array.length probes - 1 do
        let v = Melastic.Profile.fire probes.(k) in
        if v <> 0 then begin
          last_any := cycle;
          for i = 0 to threads - 1 do
            if has_thread v i then last_thread.(i) <- cycle
          done
        end
      done;
      if cycle - !last_any >= timeout && pending () then begin
        report ~checker:"watchdog" ~cycle ~channel
          ~expected:
            (Printf.sprintf "a transfer within %d cycles while work is pending"
               timeout)
          ~actual:
            (Printf.sprintf "no transfer since cycle %d" (max 0 !last_any))
          ();
        last_any := cycle (* re-arm *)
      end;
      match (starvation_timeout, thread_pending) with
      | Some st, Some tp ->
        for i = 0 to threads - 1 do
          if cycle - last_thread.(i) >= st && tp i then begin
            report ~checker:"watchdog" ~cycle ~channel ~thread:i
              ~expected:
                (Printf.sprintf
                   "thread transfers within %d cycles while it has work" st)
              ~actual:
                (Printf.sprintf "starved since cycle %d" (max 0 last_thread.(i)))
              ();
            last_thread.(i) <- cycle
          end
        done
      | _ -> ())

(* ---- (e) barrier liveness ---- *)

(* Every participant entering WAIT must be released (see its FSM leave
   WAIT) once all participants have arrived; a thread parked in WAIT
   for [timeout] cycles means the episode can never complete
   (Section V / Fig. 8). *)
let check_barrier ?(timeout = 1000) ?participants t ~name ~threads =
  let participates =
    match participants with None -> Array.make threads true | Some p -> p
  in
  (* One state probe per participant, resolved here; [None] for a
     thread that does not take part. *)
  let states =
    Array.mapi
      (fun i p ->
        if p then Some (Hw.Sampler.watch t.sampler (Melastic.Names.state name i))
        else None)
      participates
  in
  let report = reporter t in
  let entered = Array.make threads (-1) in
  Hw.Sampler.on_sample t.sampler (fun smp ->
      let cycle = Hw.Sampler.cycle smp in
      for i = 0 to threads - 1 do
        match states.(i) with
        | None -> ()
        | Some h ->
          if Hw.Sampler.get_int h = Melastic.Barrier.state_wait then begin
            if entered.(i) < 0 then entered.(i) <- cycle
            else if cycle - entered.(i) >= timeout then begin
              report ~checker:"barrier" ~cycle ~channel:name ~thread:i
                ~expected:
                  (Printf.sprintf "release (go flip) within %d cycles of WAIT"
                     timeout)
                ~actual:
                  (Printf.sprintf "in WAIT since cycle %d" entered.(i))
                ();
              entered.(i) <- cycle (* re-arm *)
            end
          end
          else entered.(i) <- -1
      done)

(* ---- results ---- *)

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter (fun f -> f ()) (List.rev t.finalizers)
  end

let violations t =
  finalize t;
  List.rev t.violations

let violation_count t =
  finalize t;
  List.length t.violations + t.suppressed

let ok t = violation_count t = 0

let exit_code t = if ok t then 0 else 1

let pp_violation fmt v =
  Format.fprintf fmt "[%s] cycle %d, channel %s%s: expected %s; got %s"
    v.checker v.cycle v.channel
    (match v.thread with
     | Some i -> Printf.sprintf ", thread %d" i
     | None -> "")
    v.expected v.actual

let summary t =
  finalize t;
  let buf = Buffer.create 256 in
  let n = violation_count t in
  Buffer.add_string buf
    (if n = 0 then "monitor: all invariants held\n"
     else Printf.sprintf "monitor: %d violation(s)%s\n" n
         (if t.suppressed > 0 then
            Printf.sprintf " (%d suppressed)" t.suppressed
          else ""));
  List.iter
    (fun v -> Buffer.add_string buf (Format.asprintf "  %a@." pp_violation v))
    (violations t);
  Buffer.contents buf
