(** Host-side driver for a multithreaded elastic design with an
    {!Melastic.Mt_channel.source} at [src] and a sink at [snk].

    Injection policy (as in the paper's experiments): each cycle, pick
    round-robin among threads that have pending data and whose
    upstream ready is high (MEB readys derive from registered state,
    so they are observable before the valids are poked).  The sink's
    per-thread ready follows a [cycle -> thread -> bool] script —
    per-thread downstream stalls, e.g. Fig. 5's "thread B stalls".

    The record is exposed so bespoke testbenches (multi-source joins,
    etc.) can drive the queues and pointer directly. *)

type event = { cycle : int; thread : int; data : Bits.t }

type t = {
  sim : Hw.Sim.t;
  threads : int;
  width : int;
  src_valid : Hw.Sim.port;  (** [<src>_valid], resolved at {!create} *)
  src_data : Hw.Sim.port;
  src_ready : Hw.Sim.port;
  snk_ready : Hw.Sim.port;  (** [<snk>_ready] *)
  snk_fire : Hw.Sim.port;
  snk_data : Hw.Sim.port;
  pending : Bits.t Queue.t array;
  mutable inject_ptr : int;
  mutable sink_ready : int -> int -> bool;
  mutable in_log : event list;
  mutable out_log : event list;
}

val create :
  Hw.Sim.t -> src:string -> snk:string -> threads:int -> width:int -> t

val set_sink_ready : t -> (int -> int -> bool) -> unit
val push : t -> thread:int -> Bits.t -> unit
val push_int : t -> thread:int -> int -> unit
val pending_count : t -> thread:int -> int

val step : t -> unit
val run : t -> int -> unit

val run_until_drained : t -> limit:int -> bool
(** Run until every pushed item has reached the sink, or [limit]
    cycles; true when drained.  The pushed-item count is re-evaluated
    each cycle (not snapshotted at entry), so items pushed mid-run by
    simulation observers are waited for too.  An empty driver is
    drained immediately — [true] without stepping, even at
    [~limit:0]. *)

val inputs : t -> event list
val outputs : t -> event list

val output_sequence : t -> thread:int -> Bits.t list
(** The thread's data stream observed at the sink, in order. *)

val input_sequence : t -> thread:int -> Bits.t list

val throughput : t -> thread:int -> from_cycle:int -> to_cycle:int -> float
(** Sink transfers of the thread per cycle over the window (the
    Section III.A measurements). *)
