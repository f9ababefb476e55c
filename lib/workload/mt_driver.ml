(* Host-side driver for a multithreaded elastic design with an
   [Mt_channel.source] at [src] and an [Mt_channel.sink] at [snk].

   Injection policy (per the paper's experiments): each cycle, among
   threads that have pending data AND whose upstream ready is high,
   pick one round-robin and assert its valid.  The MEB ready signals
   derive from registered state, so they are observable before the
   valids are poked.

   The sink's per-thread ready follows a script [cycle -> thread ->
   bool], modelling per-thread downstream stalls (the "thread B
   stalls" scenario of Fig. 5). *)

type event = { cycle : int; thread : int; data : Bits.t }

type t = {
  sim : Hw.Sim.t;
  threads : int;
  width : int;
  (* Endpoint ports, resolved at [create]. *)
  src_valid : Hw.Sim.port;
  src_data : Hw.Sim.port;
  src_ready : Hw.Sim.port;
  snk_ready : Hw.Sim.port;
  snk_fire : Hw.Sim.port;
  snk_data : Hw.Sim.port;
  pending : Bits.t Queue.t array;
  mutable inject_ptr : int;
  mutable sink_ready : int -> int -> bool;
  mutable in_log : event list;
  mutable out_log : event list;
}

let create sim ~src ~snk ~threads ~width =
  let module N = Melastic.Names in
  { sim; threads; width;
    src_valid = Hw.Sim.input_port sim (N.valid src);
    src_data = Hw.Sim.input_port sim (N.data src);
    src_ready = Hw.Sim.port sim (N.ready src);
    snk_ready = Hw.Sim.input_port sim (N.ready snk);
    snk_fire = Hw.Sim.port sim (N.fire snk);
    snk_data = Hw.Sim.port sim (N.data snk);
    pending = Array.init threads (fun _ -> Queue.create ());
    inject_ptr = 0;
    sink_ready = (fun _ _ -> true);
    in_log = []; out_log = [] }

let set_sink_ready t f = t.sink_ready <- f

let push t ~thread data =
  if thread < 0 || thread >= t.threads then invalid_arg "Mt_driver.push: thread";
  if Bits.width data <> t.width then invalid_arg "Mt_driver.push: width";
  Queue.add data t.pending.(thread)

let push_int t ~thread n = push t ~thread (Bits.of_int ~width:t.width n)

let pending_count t ~thread = Queue.length t.pending.(thread)

let vec_of_pred t f =
  let v = ref (Bits.zero t.threads) in
  for i = 0 to t.threads - 1 do
    if f i then v := Bits.set_bit !v i true
  done;
  !v

let step t =
  let sim = t.sim in
  let c = Hw.Sim.cycle_no sim in
  Hw.Sim.write sim t.snk_ready (vec_of_pred t (fun i -> t.sink_ready c i));
  (* Clear valids, settle, observe upstream readiness. *)
  Hw.Sim.write sim t.src_valid (Bits.zero t.threads);
  Hw.Sim.settle sim;
  let ready = Hw.Sim.read sim t.src_ready in
  (* Round-robin over threads that can inject this cycle. *)
  let chosen = ref None in
  for k = 0 to t.threads - 1 do
    let i = (t.inject_ptr + k) mod t.threads in
    if !chosen = None && Bits.bit ready i && not (Queue.is_empty t.pending.(i)) then
      chosen := Some i
  done;
  (match !chosen with
   | Some i ->
     let d = Queue.pop t.pending.(i) in
     Hw.Sim.write sim t.src_valid (Bits.set_bit (Bits.zero t.threads) i true);
     Hw.Sim.write sim t.src_data d;
     t.inject_ptr <- (i + 1) mod t.threads;
     t.in_log <- { cycle = c; thread = i; data = d } :: t.in_log
   | None -> ());
  Hw.Sim.settle sim;
  let fire = Hw.Sim.read sim t.snk_fire in
  for i = 0 to t.threads - 1 do
    if Bits.bit fire i then
      t.out_log <-
        { cycle = c; thread = i; data = Hw.Sim.read sim t.snk_data } :: t.out_log
  done;
  Hw.Sim.cycle sim

let run t n = for _ = 1 to n do step t done

(* Run until all pushed items have drained at the sink or [limit]
   cycles elapse; returns true when drained.  [total_pushed] is
   re-derived every iteration (injections so far + still-queued items),
   not snapshotted at entry, so items pushed from a sink-ready callback
   or another observer while the loop runs are also waited for. *)
let run_until_drained t ~limit =
  let injected () = Array.for_all Queue.is_empty t.pending in
  let rec go n =
    let total_pushed =
      List.length t.in_log
      + Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.pending
    in
    if injected () && List.length t.out_log >= total_pushed then true
    else if n >= limit then false
    else begin
      step t;
      go (n + 1)
    end
  in
  go 0

let inputs t = List.rev t.in_log
let outputs t = List.rev t.out_log

(* Per-thread ordered data sequence observed at the sink. *)
let output_sequence t ~thread =
  List.filter_map
    (fun e -> if e.thread = thread then Some e.data else None)
    (outputs t)

let input_sequence t ~thread =
  List.filter_map
    (fun e -> if e.thread = thread then Some e.data else None)
    (inputs t)

(* Accepted transfers per thread over a cycle window — the throughput
   measurements of Section III.A. *)
let throughput t ~thread ~from_cycle ~to_cycle =
  let count =
    List.length
      (List.filter
         (fun e -> e.thread = thread && e.cycle >= from_cycle && e.cycle <= to_cycle)
         (outputs t))
  in
  float_of_int count /. float_of_int (to_cycle - from_cycle + 1)
