(* The shared "sample watched signals once per cycle" core.

   Every instrument that rides on a simulator — statistics, schedule
   capture, protocol monitors — needs the same loop: read a set of
   signals after each cycle settles and hand the values to some
   per-instrument state machine.  A [Sampler.t] owns that loop: it
   registers a single [Sim.on_cycle] observer, refreshes every watched
   signal's value, optionally appends it to a per-signal history, and
   then invokes the registered listeners in order.  [Workload.Stats],
   [Workload.Schedule] and [Monitor] are all clients of this module
   rather than three hand-rolled read loops.

   [watch] resolves the name to a [Sim.port] once and returns a handle;
   the per-cycle refresh walks a prebuilt array of handles and does no
   name lookup.  A narrow signal (<= [Bits.max_int_width] bits) is
   sampled as an int, and boxed as a [Bits.t] only when a client asks
   for one after the value changed. *)

type handle = {
  port : Sim.port;
  narrow : bool;
  mutable int_value : int; (* narrow: the latest sample *)
  mutable bits : Bits.t;
  (* wide: the latest sample; narrow: [int_value] boxed, unless [stale] *)
  mutable stale : bool;
  mutable history : Bits.t list; (* newest first; only when recording *)
  mutable recording : bool;
}

type t = {
  sim : Sim.t;
  tbl : (string, handle) Hashtbl.t; (* makes [watch] idempotent *)
  mutable handles : handle array; (* watch order *)
  mutable listeners : (t -> unit) array; (* registration order *)
  mutable cycle : int;
}

let sim t = t.sim

let get h =
  if h.stale then begin
    h.bits <- Bits.of_int ~width:(Sim.port_width h.port) h.int_value;
    h.stale <- false
  end;
  h.bits

let get_int h = if h.narrow then h.int_value else Bits.to_int h.bits

let refresh sim h =
  if h.narrow then begin
    let v = Sim.read_int sim h.port in
    if v <> h.int_value then begin
      h.int_value <- v;
      h.stale <- true
    end
  end
  else h.bits <- Sim.read sim h.port;
  if h.recording then h.history <- get h :: h.history

let watch t name =
  match Hashtbl.find_opt t.tbl name with
  | Some h -> h
  | None ->
    (* Resolving here makes a typo'd name fail at attach time (with the
       backend's near-miss diagnostics), not mid-run. *)
    let port = Sim.port t.sim name in
    let narrow = Sim.port_width port <= Bits.max_int_width in
    let bits = Sim.read t.sim port in
    let h =
      { port; narrow; int_value = (if narrow then Bits.to_int bits else 0);
        bits; stale = false; history = []; recording = false }
    in
    Hashtbl.replace t.tbl name h;
    t.handles <- Array.append t.handles [| h |];
    h

let record t name =
  let h = watch t name in
  h.recording <- true;
  h

let on_sample t f = t.listeners <- Array.append t.listeners [| f |]

let attach sim =
  let t =
    { sim; tbl = Hashtbl.create 16; handles = [||]; listeners = [||]; cycle = 0 }
  in
  Sim.on_cycle sim (fun sim ->
      t.cycle <- Sim.cycle_no sim;
      let hs = t.handles in
      for i = 0 to Array.length hs - 1 do
        refresh sim hs.(i)
      done;
      let ls = t.listeners in
      for i = 0 to Array.length ls - 1 do
        ls.(i) t
      done);
  t

let cycle t = t.cycle

let series h = List.rev h.history
let series_int h = List.rev_map Bits.to_int h.history
