(* Host-side driver for a single-thread elastic pipeline built with
   [Elastic.Channel.source] / [Elastic.Channel.sink].

   Injection: the next pending item is offered whenever the source is
   ready.  The sink's ready follows a per-cycle script, modelling
   downstream stalls.  All transfers are logged with their cycle. *)

type event = { cycle : int; data : Bits.t }

type t = {
  sim : Hw.Sim.t;
  width : int;
  (* Endpoint ports, resolved at [create]. *)
  src_valid : Hw.Sim.port;
  src_data : Hw.Sim.port;
  src_ready : Hw.Sim.port;
  snk_ready : Hw.Sim.port;
  snk_fire : Hw.Sim.port;
  snk_data : Hw.Sim.port;
  pending : Bits.t Queue.t;
  mutable sink_ready : int -> bool;
  mutable in_log : event list;
  mutable out_log : event list;
}

let create sim ~src ~snk ~width =
  let module N = Melastic.Names in
  { sim; width;
    src_valid = Hw.Sim.input_port sim (N.valid src);
    src_data = Hw.Sim.input_port sim (N.data src);
    src_ready = Hw.Sim.port sim (N.ready src);
    snk_ready = Hw.Sim.input_port sim (N.ready snk);
    snk_fire = Hw.Sim.port sim (N.fire snk);
    snk_data = Hw.Sim.port sim (N.data snk);
    pending = Queue.create ();
    sink_ready = (fun _ -> true); in_log = []; out_log = [] }

let set_sink_ready t f = t.sink_ready <- f

let push t data =
  if Bits.width data <> t.width then invalid_arg "St_driver.push: width";
  Queue.add data t.pending

let push_int t n = push t (Bits.of_int ~width:t.width n)

let step t =
  let sim = t.sim in
  let c = Hw.Sim.cycle_no sim in
  Hw.Sim.write sim t.snk_ready (Bits.of_bool (t.sink_ready c));
  (* Offer the head item if any; the source's ready tells us whether it
     will transfer this cycle. *)
  (match Queue.peek_opt t.pending with
   | Some d ->
     Hw.Sim.write sim t.src_valid Bits.vdd;
     Hw.Sim.write sim t.src_data d
   | None -> Hw.Sim.write sim t.src_valid Bits.gnd);
  Hw.Sim.settle sim;
  let in_fire =
    Bits.to_bool (Hw.Sim.read sim t.src_ready) && not (Queue.is_empty t.pending)
  in
  if in_fire then begin
    let d = Queue.pop t.pending in
    t.in_log <- { cycle = c; data = d } :: t.in_log
  end;
  if Bits.to_bool (Hw.Sim.read sim t.snk_fire) then
    t.out_log <- { cycle = c; data = Hw.Sim.read sim t.snk_data } :: t.out_log;
  Hw.Sim.cycle sim

let run t n = for _ = 1 to n do step t done

let inputs t = List.rev t.in_log
let outputs t = List.rev t.out_log
let output_data t = List.map (fun e -> e.data) (outputs t)
