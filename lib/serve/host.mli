(** One serving host, steppable one cycle at a time.

    This is the per-replica serving loop of {!Engine} factored out as
    a first-class layer: bounded per-class FIFO admission queues, a
    per-cycle slot allocator over one {!Backend_intf.replica},
    deadline expiry with cancel + retry budget, and per-cycle
    occupancy / queue-depth metrics.  {!Engine.run} drives one host
    per replica to completion; the fleet layer ({!Fleet.Frontend})
    interleaves many hosts on a shared clock and needs the extra
    surface a closed loop cannot offer:

    - {!queue_depth} — the admission backlog, so a front-end can
      route and a neighbor can decide to steal;
    - {!steal} / {!admit_queued} — move a queued (never a running)
      job between hosts;
    - {!complete_external} — retire a queued job whose result
      materialized elsewhere (a result-cache hit), without burning a
      slot.

    Determinism: a host's behaviour is a pure function of its
    admission sequence and its replica, so any embedding that feeds
    hosts deterministically gets byte-identical results. *)

(** {1 Job classes} *)

type class_config = {
  cname : string;
  capacity : int;  (** max queued jobs; arrivals beyond it are shed *)
}

val default_class : class_config
(** [{ cname = "default"; capacity = 64 }]. *)

(** {1 Queued jobs} *)

type 'job queued = {
  q_id : int;
  q_cls : int;  (** class index *)
  q_payload : 'job;
  q_arrival : int;  (** latency baseline (the job's original arrival) *)
  q_eff_arrival : int;  (** current deadline baseline ((re-)admission cycle) *)
  q_deadline : int option;
  q_retries : int;  (** retry budget *)
  q_tries : int;  (** attempts so far (0 before the first timeout) *)
}
(** A queue entry, exposed so jobs can migrate between hosts
    ({!steal} hands one out, {!admit_queued} takes one in). *)

(** {1 Events} *)

type 'res event =
  | Completed of { id : int; result : 'res; latency : int; slot : int }
      (** [latency] = completion cycle - the job's [q_arrival] *)
  | Timed_out of { id : int; tries : int }
  | Shed of { id : int; at : int }
      (** a retry re-admission found its class queue full *)

(** {1 The host} *)

type ('job, 'res) t

val create :
  ?classes:class_config list -> ('job, 'res) Backend_intf.replica -> ('job, 'res) t

val classes : ('job, 'res) t -> class_config array

val profile : ('job, 'res) t -> Melastic.Profile.t
(** The host's gauge profile: ["busy_slots"] and ["queue_depth"]
    histograms, one sample per {!step}.  {!metrics} reads its exact
    sum/max; the fleet layer reads its percentiles. *)

val class_index : ('job, 'res) t -> string -> int
(** Raises [Invalid_argument] for an unknown class name. *)

val slots : ('job, 'res) t -> int
val busy_slots : ('job, 'res) t -> int
val cycle_no : ('job, 'res) t -> int

val queue_depth : ('job, 'res) t -> int
(** Jobs currently queued (all classes). *)

val admit :
  ?cls:int ->
  ?deadline:int ->
  ?retries:int ->
  ('job, 'res) t ->
  id:int ->
  arrival:int ->
  'job ->
  bool
(** Admit a job to its class queue; [false] means the queue was full
    and the job was shed (the host records nothing — shedding is the
    caller's event).  [arrival] is the latency baseline; the deadline
    budget starts now. *)

val admit_queued : ('job, 'res) t -> 'job queued -> bool
(** Admit a migrated entry, preserving its latency and deadline
    baselines and its attempt count — hosts on a shared clock hand a
    stolen job over without resetting its budget. *)

val steal : ('job, 'res) t -> 'job queued option
(** Remove and return the youngest entry of the deepest class queue
    (classic work-stealing order: steal the work least likely to be
    about to run).  Running jobs are never stolen — a launched token
    cannot be retracted from the hardware. *)

val complete_external : ('job, 'res) t -> id:int -> bool
(** Remove a queued entry by job id — its result arrived from
    elsewhere (a result cache, a coalesced twin).  [false] when the
    id is not queued here (it may already be running, which external
    completion deliberately does not interrupt). *)

val step : ('job, 'res) t -> 'res event list
(** One serving cycle: expire queued deadlines → refill free slots
    (round-robin across classes, FIFO within) → expire running
    deadlines (cancel in hardware, retry or time out) → sample metrics
    → step the replica → harvest completions.  Events are returned in
    resolution order within the cycle.

    Queued expiry scans every queued entry, but only on a cycle that
    has reached the host's watermark: the least [q_eff_arrival + d]
    over queued entries with [q_deadline = Some d].  Every admission
    path lowers the watermark, removals leave it a lower bound, and
    the scan recomputes it from what stays queued.  The rule is exact:
    below the watermark no queued entry has expired, so the scan would
    re-add every entry in order.  A cycle with no queued deadline due
    therefore costs nothing per waiting job. *)

val outstanding : ('job, 'res) t -> int list
(** Ids still queued or running, ascending — what a cycle-limit
    abort must fail. *)

type metrics = {
  m_steps : int;  (** cycles stepped *)
  m_busy_slot_cycles : int;
  m_queue_depth_sum : int;
  m_queue_depth_max : int;
  m_retries : int;  (** re-admissions performed *)
}

val metrics : ('job, 'res) t -> metrics
(** The queue-depth gauge samples the per-cycle {e peak} backlog
    (after admissions and deadline re-admissions, before and after
    refill) — a job that transits the queue within a single cycle,
    notably a retry re-admission racing the refill, still registers. *)

val finish : ('job, 'res) t -> unit
(** Forward [finish] to the replica (drain + monitor finalize). *)

val violations : ('job, 'res) t -> int
