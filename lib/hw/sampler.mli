(** The shared "sample watched signals once per cycle" core.

    A sampler registers one {!Sim.on_cycle} observer.  After each
    cycle settles it refreshes every watched signal's value, appends
    it to the signal's history when recording is enabled, and invokes
    the registered listeners in registration order.  Statistics
    ({!Workload.Stats}), schedule capture ({!Workload.Schedule}) and
    the protocol monitors ({!Monitor}) are all clients of this module
    instead of maintaining private read loops.

    Names are resolved once, by {!watch}; the per-cycle refresh and
    the {!get} accessors work on the returned handles and never look a
    name up. *)

type t

type handle
(** A watched signal. *)

val attach : Sim.t -> t
(** Attach a sampler to a simulator.  Works with any backend behind
    {!Sim.t}. *)

val sim : t -> Sim.t

val watch : t -> string -> handle
(** Add a signal to the per-cycle sample set; watching a name twice
    returns the same handle.  Resolves the name eagerly: an unknown
    name raises {!Sim_intf.Unknown_signal} here, not mid-run. *)

val record : t -> string -> handle
(** {!watch} plus history retention, for {!series} queries. *)

val on_sample : t -> (t -> unit) -> unit
(** Register a listener called once per cycle after all watched
    values have been refreshed; read them with {!get}/{!cycle}. *)

val cycle : t -> int
(** Cycle number of the current sample (valid inside listeners). *)

val get : handle -> Bits.t
(** Latest sampled value.  For a signal of at most
    {!Bits.max_int_width} bits the boxed value is rebuilt only when the
    sample changed. *)

val get_int : handle -> int
(** Latest sampled value as an int; no allocation for a signal of at
    most {!Bits.max_int_width} bits. *)

val series : handle -> Bits.t list
(** Recorded history of a {!record}ed signal, oldest first. *)

val series_int : handle -> int list
