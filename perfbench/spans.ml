(* In-memory span recorder for the traced run.

   A span is one call into a layer's public entry point, bracketed by
   the benchmark: [enter] reads the instruction counter, the minor-heap
   allocation counter and the clock (in that order), [leave] reads them
   back in reverse, so the clock window excludes the counter's system
   call.  Every span is folded into per-kind totals (count, time,
   instructions, words, and the same for its direct children), which
   give self cost = total - children.  The first [log_capacity] spans
   are also kept raw (kind, start, end, parent, job id) and written out
   by [save]; later ones are only aggregated.

   The tracer's own cost is calibrated once ([calibrate]) with empty
   spans and removed from the reported self costs: [inner] is what a
   span adds inside its own window, [outer] what it adds to its
   parent's. *)

type layer = Fleet | Host | Replica

type kind = {
  name : string;
  layer : layer;
  id : int;  (* registration order, the raw log's kind column *)
  mutable count : int;
  mutable ns : int;
  mutable instr : int;
  mutable words : float;
  mutable child_ns : int;
  mutable child_instr : int;
  mutable child_words : float;
  mutable children : int;
}

let registry = ref []

let kind name layer =
  let k =
    { name; layer; id = List.length !registry; count = 0; ns = 0; instr = 0;
      words = 0.; child_ns = 0; child_instr = 0; child_words = 0.; children = 0 }
  in
  registry := k :: !registry;
  k

let kinds () = List.rev !registry

let reset_totals () =
  List.iter
    (fun k ->
      k.count <- 0;
      k.ns <- 0;
      k.instr <- 0;
      k.words <- 0.;
      k.child_ns <- 0;
      k.child_instr <- 0;
      k.child_words <- 0.;
      k.children <- 0)
    !registry

(* ---- the open-span stack ---- *)

let max_depth = 8
let calib_kind = kind "calibration" Host
let st_kind = Array.make max_depth calib_kind
let st_ns = Array.make max_depth 0
let st_instr = Array.make max_depth 0
let st_words = Array.make max_depth 0.
let st_cns = Array.make max_depth 0
let st_cinstr = Array.make max_depth 0
let st_cwords = Array.make max_depth 0.
let st_cn = Array.make max_depth 0
let st_log = Array.make max_depth (-1)
let depth = ref 0

(* ---- the raw log ---- *)

let log_capacity = 100_000

type log = {
  l_kind : int array;
  l_start : int array;
  l_end : int array;
  l_parent : int array;
  l_job : int array;
}

(* Allocated only by [start_log], so untraced runs carry none of it. *)
let log = ref None
let log_len = ref 0
let logged = ref 0 (* spans offered to the log, kept or not *)

let start_log () =
  let a () = Array.make log_capacity 0 in
  log := Some { l_kind = a (); l_start = a (); l_end = a (); l_parent = a (); l_job = a () }

let enter ?(job = -1) k =
  let d = !depth in
  if d >= max_depth then failwith "Spans.enter: nesting too deep";
  st_kind.(d) <- k;
  st_cns.(d) <- 0;
  st_cinstr.(d) <- 0;
  st_cwords.(d) <- 0.;
  st_cn.(d) <- 0;
  (match !log with
   | Some l ->
     incr logged;
     let n = !log_len in
     if n < log_capacity then begin
       log_len := n + 1;
       l.l_kind.(n) <- k.id;
       l.l_parent.(n) <- (if d = 0 then -1 else st_log.(d - 1));
       l.l_job.(n) <- job;
       st_log.(d) <- n
     end
     else st_log.(d) <- -1
   | None -> st_log.(d) <- -1);
  depth := d + 1;
  st_instr.(d) <- Counters.instr ();
  st_words.(d) <- Gc.minor_words ();
  st_ns.(d) <- Counters.now_ns ()

let leave () =
  let t1 = Counters.now_ns () in
  let w1 = Gc.minor_words () in
  let i1 = Counters.instr () in
  let d = !depth - 1 in
  depth := d;
  let k = st_kind.(d) in
  let ns = t1 - st_ns.(d) and instr = i1 - st_instr.(d) in
  let words = w1 -. st_words.(d) in
  k.count <- k.count + 1;
  k.ns <- k.ns + ns;
  k.instr <- k.instr + instr;
  k.words <- k.words +. words;
  k.child_ns <- k.child_ns + st_cns.(d);
  k.child_instr <- k.child_instr + st_cinstr.(d);
  k.child_words <- k.child_words +. st_cwords.(d);
  k.children <- k.children + st_cn.(d);
  if d > 0 then begin
    st_cns.(d - 1) <- st_cns.(d - 1) + ns;
    st_cinstr.(d - 1) <- st_cinstr.(d - 1) + instr;
    st_cwords.(d - 1) <- st_cwords.(d - 1) +. words;
    st_cn.(d - 1) <- st_cn.(d - 1) + 1
  end;
  match !log with
  | Some l when st_log.(d) >= 0 ->
    l.l_start.(st_log.(d)) <- st_ns.(d);
    l.l_end.(st_log.(d)) <- t1
  | _ -> ()

let span ?job k f =
  enter ?job k;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* ---- calibration ---- *)

type cost = { c_ns : float; c_instr : float; c_words : float }

let zero_cost = { c_ns = 0.; c_instr = 0.; c_words = 0. }
let inner = ref zero_cost
let outer = ref zero_cost

let calibrate () =
  let parent = kind "calibration.parent" Host in
  let n = 20_000 in
  reset_totals ();
  enter parent;
  for _ = 1 to n do
    enter calib_kind;
    leave ()
  done;
  leave ();
  let per x = x /. float_of_int n in
  inner :=
    { c_ns = per (float_of_int calib_kind.ns);
      c_instr = per (float_of_int calib_kind.instr);
      c_words = per calib_kind.words };
  outer :=
    { c_ns = per (float_of_int (parent.ns - parent.child_ns));
      c_instr = per (float_of_int (parent.instr - parent.child_instr));
      c_words = per (parent.words -. parent.child_words) };
  registry := List.filter (fun k -> k != parent) !registry;
  reset_totals ()

(* Self cost of a kind with the tracer's calibrated cost removed: its
   own spans' inner cost and the outer cost of each direct child. *)
let self_instr k =
  float_of_int (k.instr - k.child_instr)
  -. (float_of_int k.count *. !inner.c_instr)
  -. (float_of_int k.children *. !outer.c_instr)

let self_ns k =
  float_of_int (k.ns - k.child_ns)
  -. (float_of_int k.count *. !inner.c_ns)
  -. (float_of_int k.children *. !outer.c_ns)

let self_words k =
  k.words -. k.child_words
  -. (float_of_int k.count *. !inner.c_words)
  -. (float_of_int k.children *. !outer.c_words)

(* Everything the tracer added to an enclosing window: per span, its
   inner plus its outer cost. *)
let overhead_instr () =
  List.fold_left
    (fun acc k ->
      if k == calib_kind then acc
      else acc +. (float_of_int k.count *. (!inner.c_instr +. !outer.c_instr)))
    0. !registry

(* ---- output ---- *)

(* Chrome trace-event JSON ("X" complete events), loadable in Perfetto;
   times in microseconds from the first logged span. *)
let save path =
  let l =
    match !log with
    | Some l -> l
    | None -> invalid_arg "Spans.save: no log was started"
  in
  let oc = open_out path in
  let n = !log_len in
  let t0 = if n = 0 then 0 else l.l_start.(0) in
  let names = Array.make (List.length !registry) "" in
  List.iter (fun k -> names.(k.id) <- k.name) !registry;
  output_string oc "{\"traceEvents\": [\n";
  for i = 0 to n - 1 do
    Printf.fprintf oc
      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
       %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"job\": \
       %d}}\n"
      (if i = 0 then "" else ",")
      names.(l.l_kind.(i))
      (float_of_int (l.l_start.(i) - t0) /. 1e3)
      (float_of_int (l.l_end.(i) - l.l_start.(i)) /. 1e3)
      i l.l_parent.(i) l.l_job.(i)
  done;
  Printf.fprintf oc "], \"spans_recorded\": %d, \"spans_total\": %d}\n" n
    !logged;
  close_out oc
