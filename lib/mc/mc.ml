(* Bounded model checker for the MT-elastic protocol.

   The checker explores the reachable register states of a small
   elastic system — the very netlist the simulators run, driven
   through [Hw.Sim]'s snapshot/restore — under every protocol-legal
   environment behaviour, and checks the paper's invariants on every
   state and edge.  See mc.mli for the property classes and DESIGN.md
   "Verification" for the soundness arguments; the load-bearing
   engineering decisions are summarized here.

   State.  A node of the explored graph is (register snapshot,
   environment state): pending producer offers, the per-flow token
   scoreboard (FIFO of injected data per thread, plus a debt list for
   operators that deliver downstream before consuming upstream, like
   the eager fork), and per-thread offer-order lists for merge-style
   shared paths.  The scoreboard rides along so conservation is a
   *local* check on each edge: after the clock edge, the occupancy
   decoded from the state registers must equal (queued - owed) tokens
   for every flow group and thread.

   Environment.  Producers are persistent: an offer stays asserted
   until it transfers, which is what [Monitor.check_stability ~strict]
   demands of host endpoints.  Consumers may do anything, so sink
   ready vectors are enumerated exhaustively (modulo the pinning
   reduction below).  Hazard specs relax exactly one of these
   preconditions to reproduce the documented composition hazards.

   Reductions (Reduced mode only; Naive explores the raw product):

   - Gated-offer canonicalization.  At a source whose valid input is
     provably read only under its ready (every MEB input: the write
     strobe is [valid AND rout] and rout is registered), an unfired
     offer is invisible to the circuit, so offering at cycle k and
     transferring at cycle k+j is stutter-equivalent to offering at
     cycle k+j.  Only inject-on-ready is explored and gated sources
     carry no offer state at all.  Availability is computed once per
     state under all-ones sink ready; since every gated endpoint's
     ready is monotone in (or independent of) sink ready, a chosen
     injection can only *lose* its ready under the actual poked combo
     — such edges are skipped as duplicates of the same combo without
     the injection.
   - Absent-thread ready pinning.  A sink ready bit of a thread with
     no token in flight and no offer this combo feeds no enabled
     transfer, so it is a don't-care: pinned to 1 instead of
     enumerated.
   - Data-independence quotient.  A netlist taint analysis from the
     [*_data] inputs proves that no signal the checker observes
     depends on data; then the data domain collapses to {0} and
     tainted (data-path) registers leave the state key.  The branch
     spec fails the proof (its steering condition IS the data) and
     automatically keeps the full domain. *)

module S = Hw.Signal
module Circuit = Hw.Circuit
module Sim = Hw.Sim
module Ch = Melastic.Mt_channel
module N = Melastic.Names
module Meb = Melastic.Meb
module Policy = Melastic.Policy
module Barrier = Melastic.Barrier
module M_fork = Melastic.M_fork
module M_join = Melastic.M_join
module M_merge = Melastic.M_merge
module M_branch = Melastic.M_branch
module Mt_varlat = Melastic.Mt_varlat
module Aligned = Melastic.Aligned

type mode = Naive | Reduced

let mode_to_string = function Naive -> "naive" | Reduced -> "reduced"

(* ------------------------------------------------------------------ *)
(* System descriptions                                                *)
(* ------------------------------------------------------------------ *)

(* Where a flow's tokens leave the system: a sink channel, which bits
   of its data bus carry this flow's payload, and (for a branch-style
   router) the data value whose tokens are the only legal visitors. *)
type sink_ref = { snk : string; slice : (int * int) option; accept : int option }

type src = {
  src_name : string;
  gated : bool;  (* valid provably read only under ready *)
  retracts : bool;  (* hazard: may withdraw an unfired offer *)
}

(* One source-to-sink token flow with its occupancy decoder.
   [tokens probe t] resolves, through [probe], every signal thread
   [t]'s decoder reads, and returns the decoder: a reader of the number
   of this flow's tokens currently stored in the circuit's registers.
   Names are resolved once, when the decoder is built (the taint check
   records them by building decoders with a fake [probe]).  [lo] may be
   negative for operators that run a delivery debt (eager fork).
   Flows sharing [grp] share one physical buffer and are balanced as a
   unit. *)
type flow = {
  from_ : string;
  into : sink_ref list;
  tokens : (string -> unit -> int) -> int -> unit -> int;
  lo : int;
  hi : int;
  grp : string option;
}

type spec = {
  label : string;
  threads : int;
  build : S.builder -> unit;
  srcs : src list;
  snks : string list;
  flows : flow list;
  one_hot : string list;  (* channels whose valid vector must stay one-hot *)
  full_groups : (string * int) list;  (* reduced-MEB instances: (name, threads) *)
  exclusive : string list list;  (* per-thread exclusivity between sources *)
  ordered : string list list;  (* per-thread offer order must survive merging *)
  no_collapse : bool;  (* hazard needs distinguishable data values *)
  expect : string option;  (* hazard spec: the class that must fire *)
}

let spec_label s = s.label
let spec_threads s = s.threads
let expected_violation s = s.expect

type stats = {
  states : int;
  edges : int;
  max_depth : int;
  data_collapsed : bool;
  truncated : bool;
}

type outcome = {
  spec_label : string;
  mode : mode;
  backend : string;
  stats : stats;
  props : (string * int) list;
  reports : Monitor.violation list;
  trace : string list;
  clean : bool;
  ok : bool;
}

let prop_names = [ "one-hot"; "at-most-one-full"; "conservation"; "deadlock" ]

(* ------------------------------------------------------------------ *)
(* Data-independence quotient                                         *)
(* ------------------------------------------------------------------ *)

let is_data_name nm =
  let l = String.length nm in
  l >= 5 && String.sub nm (l - 5) 5 = "_data"

(* Every name the checker peeks during exploration.  These must stay
   untainted for the quotient to be sound; anything else (MEB payload
   registers, combine networks) is free to depend on data. *)
let observed_names spec =
  let acc = ref [] in
  let add nm = acc := nm :: !acc in
  List.iter
    (fun s ->
      add (N.valid s.src_name);
      add (N.ready s.src_name);
      add (N.fire s.src_name))
    spec.srcs;
  List.iter
    (fun nm ->
      add (N.valid nm);
      add (N.fire nm))
    spec.snks;
  List.iter (fun nm -> add (N.valid nm)) spec.one_hot;
  List.iter
    (fun (inst, n) ->
      for i = 0 to n - 1 do
        add (N.state inst i)
      done)
    spec.full_groups;
  List.iter
    (fun f ->
      for t = 0 to spec.threads - 1 do
        let (_ : unit -> int) =
          f.tokens
            (fun nm ->
              add nm;
              fun () -> 0)
            t
        in
        ()
      done)
    spec.flows;
  !acc

(* Forward taint from the [*_data] inputs to a fixpoint.  Registers
   are tainted through d, enable and clear; everything combinational
   through [Circuit.comb_deps].  Returns (clean, keep-in-key mask over
   [regs]): when any observed signal is tainted the quotient refuses
   itself and every register stays in the key. *)
let data_quotient circuit spec regs =
  let taint = Array.make (circuit.Circuit.max_uid + 1) false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (s : S.t) ->
        if not taint.(s.S.uid) then begin
          let t =
            match s.S.op with
            | S.Input nm -> is_data_name nm
            | S.Reg r ->
              taint.(r.S.d.S.uid)
              || (match r.S.enable with Some e -> taint.(e.S.uid) | None -> false)
              || (match r.S.clear with Some c -> taint.(c.S.uid) | None -> false)
            | _ ->
              List.exists (fun (d : S.t) -> taint.(d.S.uid)) (Circuit.comb_deps s)
          in
          if t then begin
            taint.(s.S.uid) <- true;
            changed := true
          end
        end)
      circuit.Circuit.order
  done;
  let clean =
    List.for_all
      (fun nm ->
        match Circuit.find_named circuit nm with
        | s -> not taint.(s.S.uid)
        | exception _ -> true)
      (observed_names spec)
  in
  if clean then (true, Array.map (fun (r : S.t) -> not taint.(r.S.uid)) regs)
  else (false, Array.map (fun _ -> true) regs)

(* ------------------------------------------------------------------ *)
(* Exploration engine                                                 *)
(* ------------------------------------------------------------------ *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (max 16 (2 * Array.length v.a)) x in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let len v = v.n
end

(* One explored node.  [offers.(si)] is -1 or thread*2+data; [fifos]
   is flow-major x thread (queue of in-flight data, debt of data
   delivered downstream before the source fired); [order] is
   ordered-group-major x thread lists of source indices in offer
   order; [pend] is the per-thread "tokens in flight" mask. *)
type nstate = {
  snap : Bits.t array;
  offers : int array;
  fifos : (int list * int list) array;
  order : int list array;
  pend : int;
  depth : int;
  pred : int;
  via : string;
}

let rec cartesian = function
  | [] -> [ [] ]
  | c :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) c

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_first x rest

let run ?backend ?(mode = Reduced) ?(max_states = 2_000_000) ?(max_reports = 6)
    spec =
  let backend = match backend with Some b -> b | None -> !Sim.default_backend in
  let b = S.Builder.create () in
  spec.build b;
  let circuit = Circuit.create ~name:spec.label b in
  (* Both backends must enumerate the same register space, so the
     optimizer stays off even for the compiled backend. *)
  let sim = Sim.create ~backend ~optimize:false circuit in
  let regs = Array.of_list (Circuit.registers circuit) in
  let collapse, keep =
    if mode = Naive || spec.no_collapse then
      (false, Array.map (fun _ -> true) regs)
    else data_quotient circuit spec regs
  in
  let t_n = spec.threads in
  let all_mask = (1 lsl t_n) - 1 in
  let datas = if collapse then [ 0 ] else [ 0; 1 ] in
  let srcs = Array.of_list spec.srcs in
  let nsrc = Array.length srcs in
  let snks = Array.of_list spec.snks in
  let nsnk = Array.length snks in
  let flows = Array.of_list spec.flows in
  let nflow = Array.length flows in
  let src_idx name =
    let r = ref (-1) in
    Array.iteri (fun i s -> if s.src_name = name then r := i) srcs;
    if !r < 0 then invalid_arg ("Mc: unknown source " ^ name);
    !r
  in
  let snk_idx name =
    let r = ref (-1) in
    Array.iteri (fun i s -> if s = name then r := i) snks;
    if !r < 0 then invalid_arg ("Mc: unknown sink " ^ name);
    !r
  in
  let flow_src = Array.map (fun f -> src_idx f.from_) flows in
  (* Conservation groups: flows sharing [grp] share one buffer. *)
  let grp_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let ngrp = ref 0 in
  Array.iteri
    (fun fi f ->
      let key =
        match f.grp with Some g -> "g:" ^ g | None -> "f:" ^ string_of_int fi
      in
      let g =
        match Hashtbl.find_opt grp_ids key with
        | Some g -> g
        | None ->
          let g = !ngrp in
          incr ngrp;
          Hashtbl.add grp_ids key g;
          g
      in
      members
      |> fun tbl ->
      Hashtbl.replace tbl g
        (fi :: (match Hashtbl.find_opt tbl g with Some l -> l | None -> [])))
    flows;
  let ngrp = !ngrp in
  let groups = Array.init ngrp (fun g -> List.rev (Hashtbl.find members g)) in
  let g_rep = Array.map List.hd groups in
  (* Per group, the sinks its tokens may leave through, with the
     (flow, sink_ref) candidates for pop attribution. *)
  let g_sinks =
    Array.map
      (fun mem ->
        let seen = Hashtbl.create 4 in
        let names = ref [] in
        List.iter
          (fun fi ->
            List.iter
              (fun sr ->
                if not (Hashtbl.mem seen sr.snk) then begin
                  Hashtbl.add seen sr.snk ();
                  names := sr.snk :: !names
                end)
              flows.(fi).into)
          mem;
        List.map
          (fun nm ->
            ( snk_idx nm,
              nm,
              List.concat_map
                (fun fi ->
                  List.filter_map
                    (fun sr -> if sr.snk = nm then Some (fi, sr) else None)
                    flows.(fi).into)
                mem ))
          (List.rev !names))
      groups
  in
  (* Ordered groups (offer-order preservation across merged paths). *)
  let ogroups = Array.of_list (List.map (List.map src_idx) spec.ordered) in
  let nog = Array.length ogroups in
  let src_og = Array.make nsrc (-1) in
  Array.iteri (fun gi l -> List.iter (fun si -> src_og.(si) <- gi) l) ogroups;
  let g_og =
    Array.map
      (fun mem ->
        match mem with
        | [] | [ _ ] -> -1
        | l -> (
          match List.map (fun fi -> src_og.(flow_src.(fi))) l with
          | og :: rest when og >= 0 && List.for_all (( = ) og) rest -> og
          | _ -> -1))
      groups
  in
  let ex_groups = Array.of_list (List.map (List.map src_idx) spec.exclusive) in
  (* Every signal the exploration reads or drives, resolved once. *)
  let reader nm =
    let p = Sim.port sim nm in
    fun () -> Sim.read_int sim p
  in
  let src_ports f = Array.map (fun s -> f s.src_name) srcs in
  let src_valid = src_ports (fun n -> Sim.input_port sim (N.valid n)) in
  let src_data = src_ports (fun n -> Sim.input_port sim (N.data n)) in
  let src_ready =
    Array.map (fun s -> if s.gated then reader (N.ready s.src_name) else fun () -> 0) srcs
  in
  let src_fire = src_ports (fun n -> reader (N.fire n)) in
  let snk_ready = Array.map (fun n -> Sim.input_port sim (N.ready n)) snks in
  let snk_fire = Array.map (fun n -> reader (N.fire n)) snks in
  let snk_data = Array.map (fun n -> reader (N.data n)) snks in
  let one_hot_valid = List.map (fun nm -> (nm, Sim.port sim (N.valid nm))) spec.one_hot in
  let full_states =
    List.map
      (fun (inst, n) -> (inst, Array.init n (fun i -> reader (N.state inst i))))
      spec.full_groups
  in
  let decoders =
    Array.init (ngrp * t_n) (fun k ->
        flows.(g_rep.(k / t_n)).tokens reader (k mod t_n))
  in
  let compute_bals () = Array.map (fun d -> d ()) decoders in
  let pending_of bals offers =
    let m = ref 0 in
    Array.iteri (fun i v -> if v <> 0 then m := !m lor (1 lsl (i mod t_n))) bals;
    Array.iter (fun o -> if o >= 0 then m := !m lor (1 lsl (o / 2))) offers;
    !m land all_mask
  in
  let key_of snap offers fifos order =
    let buf = Buffer.create 128 in
    Array.iteri
      (fun i v ->
        if keep.(i) then begin
          Buffer.add_string buf (Bits.to_hex_string v);
          Buffer.add_char buf ';'
        end)
      snap;
    Array.iter
      (fun o ->
        Buffer.add_string buf (string_of_int o);
        Buffer.add_char buf ',')
      offers;
    Array.iter
      (fun (q, d) ->
        Buffer.add_char buf '|';
        List.iter (fun x -> Buffer.add_char buf (Char.chr (48 + x))) q;
        Buffer.add_char buf '/';
        List.iter (fun x -> Buffer.add_char buf (Char.chr (48 + x))) d)
      fifos;
    Array.iter
      (fun l ->
        Buffer.add_char buf '!';
        List.iter (fun x -> Buffer.add_char buf (Char.chr (48 + x))) l)
      order;
    Buffer.contents buf
  in
  (* Bookkeeping for results. *)
  let counts = Hashtbl.create 4 in
  List.iter (fun p -> Hashtbl.replace counts p 0) prop_names;
  let reports = ref [] in
  let n_reports = ref 0 in
  let first_trace = ref [] in
  let states : nstate Vec.t = Vec.create () in
  let trace_to id extra =
    let rec walk id acc =
      if id < 0 then acc
      else
        let st = Vec.get states id in
        walk st.pred (if st.pred < 0 then acc else st.via :: acc)
    in
    let n = ref 0 in
    "reset"
    :: List.map
         (fun v ->
           incr n;
           Printf.sprintf "cycle %d: %s" !n v)
         (walk id [] @ extra)
  in
  let report ~prop ~channel ?thread ~expected ~actual ~depth ~at ?(extra = [])
      () =
    Hashtbl.replace counts prop (Hashtbl.find counts prop + 1);
    if !n_reports < max_reports then begin
      incr n_reports;
      reports :=
        { Monitor.checker = "mc-" ^ prop; cycle = depth; channel; thread;
          expected; actual }
        :: !reports;
      if !first_trace = [] then first_trace := trace_to at extra
    end
  in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let edges : (int * int) Vec.t = Vec.create () in
  let truncated = ref false in
  let max_depth = ref 0 in
  let add_state ~pred ~via snap offers fifos order bals =
    let key = key_of snap offers fifos order in
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
      let depth = if pred < 0 then 0 else (Vec.get states pred).depth + 1 in
      if depth > !max_depth then max_depth := depth;
      let id = Vec.len states in
      Vec.push states
        { snap; offers; fifos; order; pend = pending_of bals offers; depth;
          pred; via };
      Hashtbl.add tbl key id;
      Queue.add id queue;
      id
  in
  let slice_val sr v =
    match sr.slice with
    | None -> v
    | Some (hi, lo) -> (v lsr lo) land ((1 lsl (hi - lo + 1)) - 1)
  in
  (* Root: the reset state with all inputs low. *)
  Sim.settle sim;
  let root_bals = compute_bals () in
  ignore
    (add_state ~pred:(-1) ~via:"" (Sim.snapshot sim) (Array.make nsrc (-1))
       (Array.make (nflow * t_n) ([], []))
       (Array.make (nog * t_n) [])
       root_bals);
  Array.iteri
    (fun i v ->
      if v <> 0 then
        report ~prop:"conservation"
          ~channel:flows.(g_rep.(i / t_n)).from_
          ~thread:(i mod t_n) ~expected:"empty system at reset"
          ~actual:(Printf.sprintf "occupancy decodes to %d" v)
          ~depth:0 ~at:0 ())
    root_bals;
  (try
     while not (Queue.is_empty queue) do
       if Vec.len states > max_states then begin
         truncated := true;
         raise Exit
       end;
       let id = Queue.pop queue in
       let st = Vec.get states id in
       (* Base settle: pending offers asserted, every sink ready.
          Registered-state checks and gated availability read here. *)
       Sim.restore sim st.snap;
       for si = 0 to nsrc - 1 do
         let o = st.offers.(si) in
         Sim.write_int sim src_valid.(si) (if o >= 0 then 1 lsl (o / 2) else 0);
         Sim.write_int sim src_data.(si) (if o >= 0 then o land 1 else 0)
       done;
       Array.iter (fun p -> Sim.write_int sim p all_mask) snk_ready;
       Sim.settle sim;
       List.iter
         (fun (inst, states) ->
           let fulls = ref 0 in
           let bad = ref (-1) in
           for i = 0 to Array.length states - 1 do
             let v = states.(i) () in
             if v = 2 then incr fulls;
             if v > 2 then bad := i
           done;
           if !bad >= 0 then
             report ~prop:"at-most-one-full" ~channel:inst ~thread:!bad
               ~expected:"state in {EMPTY, HALF, FULL}"
               ~actual:(Printf.sprintf "state%d = 3" !bad)
               ~depth:st.depth ~at:id ();
           if !fulls > 1 then
             report ~prop:"at-most-one-full" ~channel:inst
               ~expected:"at most one FULL thread (one shared aux slot)"
               ~actual:(Printf.sprintf "%d threads FULL" !fulls)
               ~depth:st.depth ~at:id ())
         full_states;
       let avail = Array.map (fun r -> r ()) src_ready in
       (* Threads each source currently holds (for exclusivity). *)
       let held = Array.make nsrc 0 in
       Array.iteri
         (fun si o -> if o >= 0 then held.(si) <- held.(si) lor (1 lsl (o / 2)))
         st.offers;
       Array.iteri
         (fun fi _ ->
           let si = flow_src.(fi) in
           for t = 0 to t_n - 1 do
             let q, d = st.fifos.((fi * t_n) + t) in
             if q <> [] || d <> [] then held.(si) <- held.(si) lor (1 lsl t)
           done)
         flows;
       let choices =
         Array.to_list
           (Array.mapi
              (fun si s ->
                let o = st.offers.(si) in
                (* An unfired offer at a GATED endpoint is invisible to
                   the circuit, so the environment closure may also
                   reconsider it (else Naive models a strictly more
                   committed environment than Reduced prunes: a
                   producer wedged on a full thread starves a barrier
                   or aligned join of the sibling threads it needs —
                   a real composition hazard, but of persistent
                   ungated producers, which is what the hazard specs
                   with [retracts] document). *)
                if o >= 0 then
                  if s.retracts || (mode = Naive && s.gated) then [ o; -1 ]
                  else [ o ]
                else begin
                  let opts = ref [ -1 ] in
                  for t = t_n - 1 downto 0 do
                    let injectable =
                      if mode = Reduced && s.gated then
                        avail.(si) land (1 lsl t) <> 0
                      else true
                    in
                    if injectable then
                      List.iter
                        (fun d -> opts := ((t * 2) lor d) :: !opts)
                        datas
                  done;
                  !opts
                end)
              srcs)
       in
       let combo_ok combo =
         Array.for_all
           (fun mem ->
             let acc = ref 0 in
             let ok = ref true in
             List.iter
               (fun si ->
                 let m =
                   held.(si)
                   lor
                   match combo.(si) with
                   | c when c >= 0 -> 1 lsl (c / 2)
                   | _ -> 0
                 in
                 if !acc land m <> 0 then ok := false;
                 acc := !acc lor m)
               mem;
             !ok)
           ex_groups
       in
       List.iter
         (fun combo_l ->
           let combo = Array.of_list combo_l in
           if combo_ok combo then begin
             let inject = ref 0 in
             Array.iter
               (fun c -> if c >= 0 then inject := !inject lor (1 lsl (c / 2)))
               combo;
             let rel =
               if mode = Naive then all_mask
               else (st.pend lor !inject) land all_mask
             in
             let rel_bits = ref [] in
             for t = t_n - 1 downto 0 do
               if rel land (1 lsl t) <> 0 then rel_bits := t :: !rel_bits
             done;
             let rel_bits = Array.of_list !rel_bits in
             let nrel = Array.length rel_bits in
             let pinned = all_mask land lnot rel in
             for rc = 0 to (1 lsl (nrel * nsnk)) - 1 do
               let rvec = Array.make nsnk pinned in
               for k = 0 to nsnk - 1 do
                 for j = 0 to nrel - 1 do
                   if (rc lsr ((k * nrel) + j)) land 1 <> 0 then
                     rvec.(k) <- rvec.(k) lor (1 lsl rel_bits.(j))
                 done
               done;
               Sim.restore sim st.snap;
               for si = 0 to nsrc - 1 do
                 let c = combo.(si) in
                 Sim.write_int sim src_valid.(si)
                   (if c >= 0 then 1 lsl (c / 2) else 0);
                 Sim.write_int sim src_data.(si) (if c >= 0 then c land 1 else 0)
               done;
               Array.iteri (fun k p -> Sim.write_int sim p rvec.(k)) snk_ready;
               Sim.settle sim;
               let fires_src = Array.map (fun r -> r ()) src_fire in
               (* Canonical-order skip: a gated injection that does not
                  fire under this ready combo is the same edge as the
                  combo without it. *)
               let skip = ref false in
               Array.iteri
                 (fun si s ->
                   if
                     mode = Reduced && s.gated && combo.(si) >= 0
                     && fires_src.(si) land (1 lsl (combo.(si) / 2)) = 0
                   then skip := true)
                 srcs;
               if not !skip then begin
                 let via =
                   String.concat " "
                     (Array.to_list
                        (Array.mapi
                           (fun si s ->
                             match combo.(si) with
                             | c when c >= 0 ->
                               Printf.sprintf "%s=t%d/%d" s.src_name (c / 2)
                                 (c land 1)
                             | _ -> Printf.sprintf "%s=-" s.src_name)
                           srcs)
                     @ Array.to_list
                         (Array.mapi
                            (fun k snk ->
                              Printf.sprintf "%s.ready=%s" snk
                                (Bits.to_binary_string
                                   (Bits.of_int ~width:t_n rvec.(k))))
                            snks))
                 in
                 let depth' = st.depth + 1 in
                 List.iter
                   (fun (nm, valid) ->
                     let v = Sim.read sim valid in
                     if Bits.popcount v > 1 then
                       report ~prop:"one-hot" ~channel:nm
                         ~expected:"at most one valid thread per cycle (P1)"
                         ~actual:
                           (Printf.sprintf "valids = %s"
                              (Bits.to_binary_string v))
                         ~depth:depth' ~at:id ~extra:[ via ] ())
                   one_hot_valid;
                 let fires_snk = Array.map (fun r -> r ()) snk_fire in
                 let nf = Array.copy st.fifos in
                 let nord = Array.copy st.order in
                 (* Offer order: a new offer joins its thread's line; a
                    retracted one leaves it. *)
                 Array.iteri
                   (fun si _ ->
                     if src_og.(si) >= 0 then
                       if combo.(si) >= 0 && st.offers.(si) < 0 then begin
                         let oi = (src_og.(si) * t_n) + (combo.(si) / 2) in
                         nord.(oi) <- nord.(oi) @ [ si ]
                       end
                       else if combo.(si) < 0 && st.offers.(si) >= 0 then begin
                         let oi =
                           (src_og.(si) * t_n) + (st.offers.(si) / 2)
                         in
                         nord.(oi) <- remove_first si nord.(oi)
                       end)
                   srcs;
                 (* Pushes: every source fire injects into all its flows. *)
                 Array.iteri
                   (fun fi f ->
                     let si = flow_src.(fi) in
                     let fm = fires_src.(si) in
                     for t = 0 to t_n - 1 do
                       if fm land (1 lsl t) <> 0 then begin
                         let d =
                           if combo.(si) >= 0 then combo.(si) land 1 else 0
                         in
                         let q, dq = nf.((fi * t_n) + t) in
                         match dq with
                         | d0 :: rest ->
                           (* The sink consumed before the source fired
                              (delivery debt, eager fork): settle it. *)
                           if (not collapse) && d0 <> d then
                             report ~prop:"conservation" ~channel:f.from_
                               ~thread:t
                               ~expected:
                                 (Printf.sprintf "source completes data %d" d)
                               ~actual:
                                 (Printf.sprintf
                                    "a sink already observed %d for this token"
                                    d0)
                               ~depth:depth' ~at:id ~extra:[ via ] ();
                           nf.((fi * t_n) + t) <- (q, rest)
                         | [] -> nf.((fi * t_n) + t) <- (q @ [ d ], [])
                       end
                     done)
                   flows;
                 (* Pops: attribute each sink fire to a queued token of
                    its conservation group. *)
                 for g = 0 to ngrp - 1 do
                   List.iter
                     (fun (ki, snk_nm, frefs) ->
                       let fm = fires_snk.(ki) in
                       for t = 0 to t_n - 1 do
                         if fm land (1 lsl t) <> 0 then begin
                           let obs_full =
                             if collapse then 0 else snk_data.(ki) ()
                           in
                           let cands =
                             List.filter
                               (fun (fi, _) -> fst nf.((fi * t_n) + t) <> [])
                               frefs
                           in
                           let expect_src =
                             if g_og.(g) >= 0 then
                               match nord.((g_og.(g) * t_n) + t) with
                               | si :: _ -> si
                               | [] -> -1
                             else -1
                           in
                           let pick =
                             match
                               ( List.find_opt
                                   (fun (fi, _) -> flow_src.(fi) = expect_src)
                                   cands,
                                 cands )
                             with
                             | Some c, _ -> Some c
                             | None, [] -> None
                             | None, [ c ] -> Some c
                             | None, l -> (
                               match
                                 List.find_opt
                                   (fun (fi, sr) ->
                                     match fst nf.((fi * t_n) + t) with
                                     | d0 :: _ -> d0 = slice_val sr obs_full
                                     | [] -> false)
                                   l
                               with
                               | Some c -> Some c
                               | None -> Some (List.hd l))
                           in
                           match pick with
                           | Some (fi, sr) ->
                             (if expect_src >= 0 && flow_src.(fi) <> expect_src
                              then
                                report ~prop:"conservation" ~channel:snk_nm
                                  ~thread:t
                                  ~expected:
                                    (Printf.sprintf
                                       "thread-%d tokens leave in offer order \
                                        (next: %s)"
                                       t
                                       srcs.(expect_src).src_name)
                                  ~actual:
                                    (Printf.sprintf
                                       "a later token from %s overtook it"
                                       srcs.(flow_src.(fi)).src_name)
                                  ~depth:depth' ~at:id ~extra:[ via ] ());
                             if g_og.(g) >= 0 then begin
                               let oi = (g_og.(g) * t_n) + t in
                               nord.(oi) <- remove_first flow_src.(fi) nord.(oi)
                             end;
                             let q, dq = nf.((fi * t_n) + t) in
                             (match q with
                             | d0 :: qrest ->
                               nf.((fi * t_n) + t) <- (qrest, dq);
                               let obs = slice_val sr obs_full in
                               if (not collapse) && obs <> d0 then
                                 report ~prop:"conservation" ~channel:snk_nm
                                   ~thread:t
                                   ~expected:
                                     (Printf.sprintf
                                        "data %d (per-thread FIFO order from \
                                         %s)"
                                        d0
                                        flows.(fi).from_)
                                   ~actual:(Printf.sprintf "observed %d" obs)
                                   ~depth:depth' ~at:id ~extra:[ via ] ();
                               (match sr.accept with
                               | Some a when (not collapse) && a <> d0 ->
                                 report ~prop:"conservation" ~channel:snk_nm
                                   ~thread:t
                                   ~expected:
                                     (Printf.sprintf
                                        "only tokens with data %d routed here"
                                        a)
                                   ~actual:
                                     (Printf.sprintf "token carries %d" d0)
                                   ~depth:depth' ~at:id ~extra:[ via ] ()
                               | _ -> ())
                             | [] -> assert false)
                           | None -> (
                             (* No queued token: legal only for flows
                                that run a delivery debt. *)
                             match
                               List.find_opt
                                 (fun (fi, _) -> flows.(fi).lo < 0)
                                 frefs
                             with
                             | Some (fi, sr) ->
                               let q, dq = nf.((fi * t_n) + t) in
                               nf.((fi * t_n) + t) <-
                                 (q, dq @ [ slice_val sr obs_full ])
                             | None ->
                               report ~prop:"conservation" ~channel:snk_nm
                                 ~thread:t
                                 ~expected:"a sink fire consumes a queued token"
                                 ~actual:"fire with no token in flight"
                                 ~depth:depth' ~at:id ~extra:[ via ] ())
                         end
                       done)
                     g_sinks.(g)
                 done;
                 Sim.cycle sim;
                 let bals = compute_bals () in
                 for g = 0 to ngrp - 1 do
                   let rep = flows.(g_rep.(g)) in
                   for t = 0 to t_n - 1 do
                     let want =
                       List.fold_left
                         (fun acc fi ->
                           let q, dq = nf.((fi * t_n) + t) in
                           acc + List.length q - List.length dq)
                         0 groups.(g)
                     in
                     let got = bals.((g * t_n) + t) in
                     if got <> want then
                       report ~prop:"conservation" ~channel:rep.from_ ~thread:t
                         ~expected:
                           (Printf.sprintf "occupancy %d (every fire accounted)"
                              want)
                         ~actual:(Printf.sprintf "state decodes to %d" got)
                         ~depth:depth' ~at:id ~extra:[ via ] ();
                     if want < rep.lo || want > rep.hi then
                       report ~prop:"conservation" ~channel:rep.from_ ~thread:t
                         ~expected:
                           (Printf.sprintf "occupancy within [%d, %d]" rep.lo
                              rep.hi)
                         ~actual:(string_of_int want) ~depth:depth' ~at:id
                         ~extra:[ via ] ()
                   done
                 done;
                 let noffers =
                   Array.mapi
                     (fun si _ ->
                       let c = combo.(si) in
                       if c >= 0 && fires_src.(si) land (1 lsl (c / 2)) <> 0
                       then -1
                       else c)
                     srcs
                 in
                 let id' =
                   add_state ~pred:id ~via (Sim.snapshot sim) noffers nf nord
                     bals
                 in
                 Vec.push edges (id, id')
               end
             done
           end)
         (cartesian choices)
     done
   with Exit -> ());
  (* Deadlock-freedom: a thread with tokens in flight must always keep
     SOME drain reachable (the environment is controllable, so this is
     exists-liveness: backward closure of the drained states). *)
  if not !truncated then begin
    let n = Vec.len states in
    let radj = Array.make n [] in
    for i = 0 to Vec.len edges - 1 do
      let f, t = Vec.get edges i in
      if f <> t then radj.(t) <- f :: radj.(t)
    done;
    for t = 0 to t_n - 1 do
      let bit = 1 lsl t in
      let good = Array.init n (fun i -> (Vec.get states i).pend land bit = 0) in
      let stack = Stack.create () in
      Array.iteri (fun i g -> if g then Stack.push i stack) good;
      while not (Stack.is_empty stack) do
        let s' = Stack.pop stack in
        List.iter
          (fun s ->
            if not good.(s) then begin
              good.(s) <- true;
              Stack.push s stack
            end)
          radj.(s')
      done;
      let bad = ref (-1) in
      Array.iteri
        (fun i g ->
          if
            (not g)
            && (!bad < 0 || (Vec.get states i).depth < (Vec.get states !bad).depth)
          then bad := i)
        good;
      if !bad >= 0 then
        report ~prop:"deadlock" ~channel:"system" ~thread:t
          ~expected:"some input sequence still drains the thread"
          ~actual:"thread holds tokens and no continuation ever drains them"
          ~depth:(Vec.get states !bad).depth
          ~at:!bad ()
    done
  end;
  let props = List.map (fun p -> (p, Hashtbl.find counts p)) prop_names in
  let clean = List.for_all (fun (_, c) -> c = 0) props in
  let ok =
    match spec.expect with
    | None -> clean && not !truncated
    | Some p -> List.assoc p props > 0
  in
  { spec_label = spec.label;
    mode;
    backend = Sim.backend_to_string backend;
    stats =
      { states = Vec.len states;
        edges = Vec.len edges;
        max_depth = !max_depth;
        data_collapsed = collapse;
        truncated = !truncated };
    props;
    reports = List.rev !reports;
    trace = !first_trace;
    clean;
    ok }

(* ------------------------------------------------------------------ *)
(* The zoo                                                            *)
(* ------------------------------------------------------------------ *)

let gated name = { src_name = name; gated = true; retracts = false }
let persistent name = { src_name = name; gated = false; retracts = false }
let sref ?slice ?accept snk = { snk; slice; accept }

(* EMPTY/HALF/FULL register value -> token count; the illegal encoding
   3 is reported by the at-most-one-full check, count it as one token
   so conservation flags the same state. *)
let decode_occ = function 0 -> 0 | 1 -> 1 | 2 -> 2 | _ -> 1

let meb_tokens ~kind ~inst probe t =
  let state =
    match kind with
    | Meb.Reduced -> probe (N.state inst t)
    | Meb.Full -> probe (N.state (N.sub inst t) 0)
  in
  fun () -> decode_occ (state ())

(* The sum of two decoders' counts (a chain, or a group sharing two
   buffers). *)
let sum_tokens a b probe t =
  let a = a probe t and b = b probe t in
  fun () -> a () + b ()

let meb_groups ~kind ~inst ~threads =
  match kind with
  | Meb.Reduced -> [ (inst, threads) ]
  | Meb.Full -> List.init threads (fun t -> (N.sub inst t, 1))

let base ~label ~threads ~build =
  { label; threads; build; srcs = []; snks = []; flows = []; one_hot = [];
    full_groups = []; exclusive = []; ordered = []; no_collapse = false;
    expect = None }

let meb ~kind ~policy ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "meb-%s-%s-S%d" (Meb.kind_to_string kind)
           (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m = Meb.create ~name:"m0" ~policy ~kind b src in
        Ch.sink b ~name:"snk" m.Meb.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind ~inst:"m0"; lo = 0; hi = 2; grp = None } ];
    one_hot = [ "snk" ];
    full_groups = meb_groups ~kind ~inst:"m0" ~threads }

let meb_chain ~kind ~policy ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "chain-%s-%s-S%d" (Meb.kind_to_string kind)
           (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m0 = Meb.create ~name:"m0" ~policy ~kind b src in
        let mid = Ch.probe b ~name:"mid" m0.Meb.out in
        let m1 = Meb.create ~name:"m1" ~policy ~kind b mid in
        Ch.sink b ~name:"snk" m1.Meb.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens =
            sum_tokens (meb_tokens ~kind ~inst:"m0") (meb_tokens ~kind ~inst:"m1");
          lo = 0; hi = 4; grp = None } ];
    one_hot = [ "mid"; "snk" ];
    full_groups =
      meb_groups ~kind ~inst:"m0" ~threads @ meb_groups ~kind ~inst:"m1" ~threads }

let barrier ~threads =
  let s =
    base ~label:(Printf.sprintf "barrier-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            src
        in
        let bar = Barrier.create ~name:"bar" b m.Meb.out in
        Ch.sink b ~name:"snk" bar.Barrier.out)
  in
  (* The barrier stores no token: it observes arrivals through valid
     while holding ready low, so occupancy lives in the MEB alone. *)
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "snk" ];
    full_groups = [ ("m0", threads) ] }

let fork_gen ~retracts ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "%s-S%d" (if retracts then "fork-retract" else "fork")
           threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let outs = M_fork.eager ~name:"mfork" b src ~n:2 in
        List.iteri
          (fun k o -> Ch.sink b ~name:(Printf.sprintf "snk%d" k) o)
          outs)
  in
  (* The eager fork's valid is read outside ready (the done bits latch
     on partial deliveries), so the source is persistent; its flows
     run a delivery debt: done(t,k) means sink k got the token before
     the source completed. *)
  { s with
    srcs = [ { src_name = "src"; gated = false; retracts } ];
    snks = [ "snk0"; "snk1" ];
    flows =
      List.init 2 (fun k ->
          { from_ = "src";
            into = [ sref (Printf.sprintf "snk%d" k) ];
            tokens =
              (fun probe t ->
                let delivered = probe (N.indexed (N.sub "mfork" t) "done" k) in
                fun () -> - delivered ());
            lo = -1; hi = 0; grp = None });
    one_hot = [ "snk0"; "snk1" ];
    no_collapse = retracts;
    expect = (if retracts then Some "conservation" else None) }

let fork ~threads = fork_gen ~retracts:false ~threads
let fork_retracting ~threads = fork_gen ~retracts:true ~threads

let join_gen ~leader ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "%s-S%d" (if leader then "join" else "join-unaligned")
           threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let ma =
          Meb.create ~name:"ma"
            ~policy:(if leader then Policy.Ready_aware else Policy.Valid_only)
            ~kind:Meb.Reduced b sa
        in
        let mc =
          Meb.create ~name:"mc" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            sc
        in
        let j = M_join.create b ma.Meb.out mc.Meb.out in
        let j = Ch.probe b ~name:"jn" j in
        Ch.sink b ~name:"snk" j)
  in
  (* Default combine is concat [a; c]: a's bit is the sink's MSB. *)
  { s with
    srcs = [ gated "srca"; gated "srcc" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref ~slice:(1, 1) "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"ma"; lo = 0; hi = 2;
          grp = None };
        { from_ = "srcc"; into = [ sref ~slice:(0, 0) "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"mc"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "jn"; "snk" ];
    full_groups = [ ("ma", threads); ("mc", threads) ];
    expect = (if leader then None else Some "deadlock") }

let join ~threads = join_gen ~leader:true ~threads
let join_unaligned ~threads = join_gen ~leader:false ~threads

let merge_gen ~fairness ~exclusive ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "merge-%s%s-S%d"
           (match fairness with
           | M_merge.Priority_a -> "prio"
           | M_merge.Fair -> "fair")
           (if exclusive then "" else "-unordered")
           threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let mg = M_merge.create ~fairness b sa sc in
        let mg = Ch.probe b ~name:"mg" mg in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            mg
        in
        Ch.sink b ~name:"snk" m.Meb.out)
  in
  (* Merge reads valids outside the producers' ready (selection and
     fairness state), so both sources are persistent.  Both flows land
     in the same MEB: one conservation group. *)
  { s with
    srcs = [ persistent "srca"; persistent "srcc" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = Some "m0" };
        { from_ = "srcc"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = Some "m0" } ];
    one_hot = [ "mg"; "snk" ];
    full_groups = [ ("m0", threads) ];
    exclusive = (if exclusive then [ [ "srca"; "srcc" ] ] else []);
    ordered = [ [ "srca"; "srcc" ] ];
    no_collapse = not exclusive;
    expect = (if exclusive then None else Some "conservation") }

let merge ~fairness ~threads = merge_gen ~fairness ~exclusive:true ~threads

let merge_unordered ~threads =
  merge_gen ~fairness:M_merge.Priority_a ~exclusive:false ~threads

let branch ~threads =
  let s =
    base ~label:(Printf.sprintf "branch-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            src
        in
        let mid = Ch.probe b ~name:"mid" m.Meb.out in
        let br = M_branch.create b mid ~cond:mid.Ch.data in
        Ch.sink b ~name:"snkt" br.M_branch.out_true;
        Ch.sink b ~name:"snkf" br.M_branch.out_false)
  in
  (* Steering is BY data, so the data quotient must (and does) refuse
     itself; the accept fields check the routing. *)
  { s with
    srcs = [ gated "src" ];
    snks = [ "snkt"; "snkf" ];
    flows =
      [ { from_ = "src";
          into = [ sref ~accept:1 "snkt"; sref ~accept:0 "snkf" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "mid"; "snkt"; "snkf" ];
    full_groups = [ ("m0", threads) ] }

(* The NoC router node (lib/noc): 2-in/2-out, input-buffered — each
   input's MEB feeds an M-Branch steered by the data bit (the
   destination field), and each output port collects both arms through
   an M-Merge.

   Merge policy: [Fair].  A fabric merge's inputs are not per-thread
   exclusive in general (one thread's tokens can converge on a router
   from different routes), and the pinned Priority_a offer-order
   hazard ([merge_unordered]) shows priority arbitration inverting one
   thread's stream across converging paths — besides starving the low
   side under load.  The checker model keeps the per-thread
   exclusivity assumption the fabric's deterministic single-path
   routes give each (source, destination) stream; what it proves is
   that the router itself never duplicates, drops, misroutes or
   deadlocks a token, with occupancy decoded from the two input
   MEBs. *)
let router ~threads =
  let s =
    base ~label:(Printf.sprintf "router-S%d" threads) ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let ma =
          Meb.create ~name:"ma" ~policy:Policy.Valid_only ~kind:Meb.Reduced b sa
        in
        let mc =
          Meb.create ~name:"mc" ~policy:Policy.Valid_only ~kind:Meb.Reduced b sc
        in
        let ina = Ch.probe b ~name:"mida" ma.Meb.out in
        let inc = Ch.probe b ~name:"midc" mc.Meb.out in
        let ba = M_branch.create b ina ~cond:ina.Ch.data in
        let bc = M_branch.create b inc ~cond:inc.Ch.data in
        let out0 =
          M_merge.create ~fairness:M_merge.Fair b ba.M_branch.out_false
            bc.M_branch.out_false
        in
        let out1 =
          M_merge.create ~fairness:M_merge.Fair b ba.M_branch.out_true
            bc.M_branch.out_true
        in
        Ch.sink b ~name:"snk0" (Ch.probe b ~name:"out0" out0);
        Ch.sink b ~name:"snk1" (Ch.probe b ~name:"out1" out1))
  in
  (* Unlike the bare [merge] spec, each source feeds an input MEB
     (whose valid input is read only under its ready), so both sources
     are gated; what the merges read outside ready is the MEB
     *outputs*, which are circuit state, not environment offers.
     Steering is BY data, so the data quotient refuses itself (as in
     [branch]) and routing is checked through the accept fields. *)
  { s with
    srcs = [ gated "srca"; gated "srcc" ];
    snks = [ "snk0"; "snk1" ];
    flows =
      (* The flows share both sinks, so they must form one
         conservation group (a sink fire is attributed within the
         group); the group decoder sums both input buffers.  Per-flow
         pop attribution stays unambiguous because exclusivity keeps a
         thread's in-flight tokens in one input buffer at a time. *)
      (let both =
         sum_tokens
           (meb_tokens ~kind:Meb.Reduced ~inst:"ma")
           (meb_tokens ~kind:Meb.Reduced ~inst:"mc")
       in
       [ { from_ = "srca";
           into = [ sref ~accept:0 "snk0"; sref ~accept:1 "snk1" ];
           tokens = both; lo = 0; hi = 2; grp = Some "rtr" };
         { from_ = "srcc";
           into = [ sref ~accept:0 "snk0"; sref ~accept:1 "snk1" ];
           tokens = both; lo = 0; hi = 2; grp = Some "rtr" } ]);
    one_hot = [ "mida"; "midc"; "out0"; "out1"; "snk0"; "snk1" ];
    full_groups = [ ("ma", threads); ("mc", threads) ];
    exclusive = [ [ "srca"; "srcc" ] ] }

let varlat ~threads =
  let s =
    base ~label:(Printf.sprintf "varlat-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let v = Mt_varlat.create ~name:"vl" b src ~latency:(Mt_varlat.Fixed 2) in
        Ch.sink b ~name:"snk" v.Mt_varlat.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens =
            (fun probe t ->
              let occ = probe "vl_occupied" in
              let owner = if threads = 1 then fun () -> 0 else probe "vl_owner" in
              fun () -> if occ () = 1 && owner () = t then 1 else 0);
          lo = 0; hi = 1; grp = None } ];
    one_hot = [ "snk" ] }

let varlat_per_thread ~threads =
  let s =
    base ~label:(Printf.sprintf "varlat-pt-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let v =
          Mt_varlat.per_thread ~name:"vlp" b src ~latency:(Mt_varlat.Fixed 2)
        in
        Ch.sink b ~name:"snk" v.Mt_varlat.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = (fun probe t -> probe (N.indexed "vlp" "occ" t));
          lo = 0; hi = 1; grp = None } ];
    one_hot = [ "snk" ] }

let aligned ~policy ~threads =
  let s =
    base
      ~label:(Printf.sprintf "aligned-%s-S%d" (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sb = Ch.source b ~name:"srcb" ~threads ~width:1 in
        let al = Aligned.create ~name:"al" ~policy b sa sb in
        Ch.sink b ~name:"snk" al.Aligned.out)
  in
  (* Aligned builds one single-thread reduced store per (side, thread)
     named al_<tag><i>; default combine is concat [a; b]. *)
  { s with
    srcs = [ gated "srca"; gated "srcb" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref ~slice:(1, 1) "snk" ];
          tokens =
            (fun probe t ->
              let state = probe (Printf.sprintf "al_a%d_state0" t) in
              fun () -> decode_occ (state ()));
          lo = 0; hi = 2; grp = None };
        { from_ = "srcb"; into = [ sref ~slice:(0, 0) "snk" ];
          tokens =
            (fun probe t ->
              let state = probe (Printf.sprintf "al_b%d_state0" t) in
              fun () -> decode_occ (state ()));
          lo = 0; hi = 2; grp = None } ];
    one_hot = [ "snk" ];
    full_groups =
      List.concat_map
        (fun tag ->
          List.init threads (fun i -> (Printf.sprintf "al_%s%d" tag i, 1)))
        [ "a"; "b" ] }

(* ------------------------------------------------------------------ *)
(* Suites                                                             *)
(* ------------------------------------------------------------------ *)

let suite ?(quick = false) () =
  let ss = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let mebs =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun policy ->
            List.map (fun threads -> meb ~kind ~policy ~threads) ss)
          [ Policy.Ready_aware; Policy.Valid_only ])
      [ Meb.Full; Meb.Reduced ]
  in
  let chains =
    if quick then [ meb_chain ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2 ]
    else
      [ meb_chain ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2;
        meb_chain ~kind:Meb.Reduced ~policy:Policy.Ready_aware ~threads:2;
        meb_chain ~kind:Meb.Full ~policy:Policy.Ready_aware ~threads:2 ]
  in
  let extra = if quick then [] else [ barrier ~threads:3; fork ~threads:3;
                                      branch ~threads:3; varlat ~threads:3;
                                      varlat_per_thread ~threads:3;
                                      join ~threads:3;
                                      aligned ~policy:Policy.Valid_only ~threads:2 ]
  in
  mebs @ chains
  @ [ barrier ~threads:2;
      fork ~threads:2;
      fork_retracting ~threads:2;
      join ~threads:2;
      join_unaligned ~threads:2;
      merge ~fairness:M_merge.Priority_a ~threads:2;
      merge ~fairness:M_merge.Fair ~threads:2;
      merge_unordered ~threads:2;
      branch ~threads:2;
      router ~threads:2;
      varlat ~threads:2;
      varlat_per_thread ~threads:2;
      aligned ~policy:Policy.Ready_aware ~threads:2 ]
  @ extra

let naive_comparable ?(quick = false) () =
  let mebs =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun policy ->
            List.map
              (fun threads -> meb ~kind ~policy ~threads)
              (if quick then [ 2 ] else [ 1; 2 ]))
          [ Policy.Ready_aware; Policy.Valid_only ])
      (if quick then [ Meb.Reduced ] else [ Meb.Full; Meb.Reduced ])
  in
  mebs
  @ (if quick then [ varlat ~threads:2 ]
     else
       [ barrier ~threads:2; fork ~threads:2; varlat ~threads:2;
         varlat_per_thread ~threads:2; branch ~threads:2;
         aligned ~policy:Policy.Ready_aware ~threads:2 ])
