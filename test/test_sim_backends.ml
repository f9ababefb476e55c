(* Cross-backend equivalence: the compiled backend (Sim_compiled) and
   the native-JIT backend (Sim_jit) must be bit-identical, cycle for
   cycle, to the reference interpreter (Sim_interp) — on randomized
   circuits covering every node kind in both the unboxed-int and wide
   (Bits.t) value domains, and on the real tier-1 workloads (MD5
   datapath, multithreaded CPU). *)

module S = Hw.Signal

let both circuit =
  ( Hw.Sim.create ~backend:Hw.Sim.Interp circuit,
    Hw.Sim.create ~backend:Hw.Sim.Compiled circuit )

(* Run [f] with the JIT pinned to its threaded-code specializer. *)
let with_forced_fallback f =
  let saved = !Hw.Sim_jit.force_fallback in
  Hw.Sim_jit.force_fallback := true;
  Fun.protect ~finally:(fun () -> Hw.Sim_jit.force_fallback := saved) f

(* Compare every output of two simulators of the same circuit. *)
let check_outputs tag si sc =
  List.iter
    (fun (name, _) ->
      let vi = Hw.Sim.peek si name and vc = Hw.Sim.peek sc name in
      if not (Bits.equal vi vc) then
        Alcotest.failf "%s: output %S differs: interp=%s compiled=%s" tag name
          (Bits.to_string vi) (Bits.to_string vc))
    (Hw.Sim.circuit si).Hw.Circuit.outputs

(* Drive both simulators with identical random input values for
   [cycles] cycles, checking all outputs after every settle and every
   cycle (so both combinational and committed state must agree). *)
let drive_lockstep ?(cycles = 30) st si sc =
  let inputs =
    Hashtbl.fold
      (fun name (s : S.t) acc -> (name, s.S.width) :: acc)
      (Hw.Sim.circuit si).Hw.Circuit.inputs []
  in
  for c = 1 to cycles do
    List.iter
      (fun (name, w) ->
        let v = Bits.random st ~width:w in
        Hw.Sim.poke si name v;
        Hw.Sim.poke sc name v)
      inputs;
    Hw.Sim.settle si;
    Hw.Sim.settle sc;
    check_outputs (Printf.sprintf "settle %d" c) si sc;
    Hw.Sim.cycle si;
    Hw.Sim.cycle sc;
    check_outputs (Printf.sprintf "cycle %d" c) si sc
  done

(* Random feed-forward circuit generator.  Widths span 1..96 so both
   the int fast path (<= Bits.max_int_width) and the wide Bits.t path
   are exercised, including mixed-width nodes (int node over wide
   operands and vice versa). *)
let random_width st = 1 + Random.State.int st 96

let random_circuit st =
  let b = S.Builder.create () in
  let n_inputs = 3 + Random.State.int st 3 in
  let pool = ref [] in
  let push s = if S.width s <= 160 then pool := s :: !pool in
  for i = 0 to n_inputs - 1 do
    push (S.input b (Printf.sprintf "in%d" i) (random_width st))
  done;
  (* A couple of constants, including boundary widths around the
     int/wide split. *)
  List.iter
    (fun w -> push (S.const b (Bits.random st ~width:w)))
    [ 1; Bits.max_int_width; Bits.max_int_width + 1; random_width st ];
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let pick_resized w = S.uresize b (pick ()) w in
  (* A register with feedback, so state depends on history. *)
  push
    (S.reg_fb b ~width:(random_width st) (fun q ->
         S.add b q (pick_resized (S.width q))));
  for _ = 1 to 50 do
    match Random.State.int st 13 with
    | 0 -> push (S.lnot b (pick ()))
    | 1 | 2 ->
      let x = pick () in
      let w = S.width x in
      let y = pick_resized w in
      let op =
        match Random.State.int st 6 with
        | 0 -> S.land_
        | 1 -> S.lor_
        | 2 -> S.lxor_
        | 3 -> S.add
        | 4 -> S.sub
        | _ -> S.lxor_
      in
      push (op b x y)
    | 3 ->
      let x = pick () in
      (* [mul] takes equal widths and doubles; keep products bounded. *)
      if S.width x <= 75 then push (S.mul b x (pick_resized (S.width x)))
    | 4 ->
      let x = pick () in
      let y = pick_resized (S.width x) in
      let cmp =
        match Random.State.int st 3 with 0 -> S.eq | 1 -> S.ult | _ -> S.slt
      in
      push (cmp b x y)
    | 5 ->
      (* Mux with fewer cases than the selector can address, so
         out-of-range selects exercise clamp-to-last-case. *)
      let sel = pick () in
      (* The builder's case-count check computes [1 lsl sel.width],
         which overflows for very wide selectors; keep them modest. *)
      let sel = if S.width sel > 16 then S.select b sel ~hi:15 ~lo:0 else sel in
      let n = 2 + Random.State.int st 3 in
      let max_cases = if S.width sel >= 3 then n else 1 lsl S.width sel in
      let n = min n max_cases in
      let w = random_width st in
      push (S.mux b sel (List.init n (fun _ -> pick_resized w)))
    | 6 ->
      let n = 1 + Random.State.int st 3 in
      let parts = List.init n (fun _ -> pick ()) in
      if List.fold_left (fun a s -> a + S.width s) 0 parts <= 160 then
        push (S.concat_msb b parts)
    | 7 ->
      let x = pick () in
      let w = S.width x in
      let lo = Random.State.int st w in
      let hi = lo + Random.State.int st (w - lo) in
      push (S.select b x ~hi ~lo)
    | 8 ->
      let d = pick () in
      let enable =
        if Random.State.int st 2 = 0 then Some (pick_resized 1) else None
      in
      let clear =
        if Random.State.int st 3 = 0 then Some (pick_resized 1) else None
      in
      push
        (S.reg b ?enable ?clear
           ~clear_to:(Bits.random st ~width:(S.width d))
           ~init:(Bits.random st ~width:(S.width d))
           d)
    | 9 -> push (S.const b (Bits.random st ~width:(random_width st)))
    | 10 ->
      let x = pick () in
      let k = Random.State.int st (S.width x) in
      push ((if Random.State.int st 2 = 0 then S.rotl else S.rotr) b x k)
    | 11 -> push (S.sresize b (pick ()) (random_width st))
    | _ ->
      let x = pick () in
      push (S.srl_dyn b x (pick_resized (max 1 (S.clog2 (S.width x + 1)))))
  done;
  (* One memory with two write ports; narrow address space so writes
     collide (port priority) and some addresses are out of range. *)
  let mw = random_width st in
  let mem = S.Memory.create b ~name:"m" ~size:6 ~width:mw () in
  for _ = 1 to 2 do
    S.Memory.write b mem ~we:(pick_resized 1) ~addr:(pick_resized 3)
      ~data:(pick_resized mw)
  done;
  push (S.Memory.read_async b mem ~addr:(pick_resized 3));
  push (S.Memory.read_sync b mem ~enable:(pick_resized 1) ~addr:(pick_resized 3) ());
  (* Expose a sample of the pool (always including the most recently
     created nodes, which transitively reference the rest). *)
  List.iteri
    (fun i s -> ignore (S.output b (Printf.sprintf "o%d" i) s))
    (List.filteri (fun i _ -> i < 12) !pool);
  Hw.Circuit.create b

let test_random_circuits () =
  let st = Random.State.make [| 0xbeef |] in
  for _ = 1 to 25 do
    let circuit = random_circuit st in
    let si, sc = both circuit in
    drive_lockstep st si sc
  done

let test_reset_equivalence () =
  (* After reset, both backends must match a freshly created pair —
     including inputs returning to zero. *)
  let st = Random.State.make [| 0xf00d |] in
  for _ = 1 to 5 do
    let circuit = random_circuit st in
    let si, sc = both circuit in
    drive_lockstep ~cycles:10 st si sc;
    Hw.Sim.reset si;
    Hw.Sim.reset sc;
    check_outputs "after reset" si sc;
    let fi, fc = both circuit in
    Hw.Sim.settle fi;
    Hw.Sim.settle fc;
    check_outputs "reset interp = fresh interp" si fi;
    check_outputs "reset compiled = fresh compiled" sc fc;
    (* And the reset pair must track a fresh pair cycle-for-cycle
       under identical stimulus. *)
    let st2 = Random.State.copy st in
    drive_lockstep ~cycles:10 st si sc;
    drive_lockstep ~cycles:10 st2 fi fc;
    check_outputs "replay interp" si fi;
    check_outputs "replay compiled" sc fc
  done

(* Directed: mux out-of-range clamping on the compiled backend, for an
   int-width and a wide-width mux. *)
let test_mux_clamp_compiled () =
  List.iter
    (fun w ->
      let b = S.Builder.create () in
      let sel = S.input b "sel" 4 in
      let cases = List.map (fun n -> S.of_int b ~width:w n) [ 10; 20; 30 ] in
      ignore (S.output b "out" (S.mux b sel cases));
      let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled (Hw.Circuit.create b) in
      let expect sel_v out_v =
        Hw.Sim.poke_int sim "sel" sel_v;
        Hw.Sim.settle sim;
        Alcotest.(check int)
          (Printf.sprintf "w=%d sel=%d" w sel_v)
          out_v
          (Bits.to_int (Hw.Sim.peek sim "out"))
      in
      expect 0 10;
      expect 1 20;
      expect 2 30;
      expect 3 30;
      expect 15 30)
    [ 8; 80 ]

(* Directed: when two write ports hit the same address in the same
   cycle, the last-added port wins — on both backends, for int-width
   and wide memories. *)
let test_mem_port_priority_compiled () =
  List.iter
    (fun w ->
      List.iter
        (fun backend ->
          let b = S.Builder.create () in
          let mem = S.Memory.create b ~name:"m" ~size:4 ~width:w () in
          let vdd = S.vdd b and addr = S.of_int b ~width:2 1 in
          S.Memory.write b mem ~we:vdd ~addr ~data:(S.of_int b ~width:w 11);
          S.Memory.write b mem ~we:vdd ~addr ~data:(S.of_int b ~width:w 22);
          ignore (S.output b "r" (S.Memory.read_async b mem ~addr));
          let sim = Hw.Sim.create ~backend (Hw.Circuit.create b) in
          Hw.Sim.cycle sim;
          Alcotest.(check int)
            (Printf.sprintf "%s w=%d last port wins"
               (Hw.Sim.backend_to_string backend)
               w)
            22
            (Bits.to_int (Hw.Sim.peek sim "r")))
        [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ])
    [ 8; 70 ]

(* Wide datapath arithmetic spot-check on the compiled backend against
   the Bits model (128-bit operands — MD5 digest territory). *)
let test_wide_arith_compiled () =
  let b = S.Builder.create () in
  let x = S.input b "x" 128 and y = S.input b "y" 128 in
  ignore (S.output b "sum" (S.add b x y));
  ignore (S.output b "diff" (S.sub b x y));
  ignore (S.output b "xor" (S.lxor_ b x y));
  ignore (S.output b "ult" (S.ult b x y));
  ignore (S.output b "hi" (S.select b x ~hi:127 ~lo:64));
  let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled (Hw.Circuit.create b) in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let xv = Bits.random st ~width:128 and yv = Bits.random st ~width:128 in
    Hw.Sim.poke sim "x" xv;
    Hw.Sim.poke sim "y" yv;
    Hw.Sim.settle sim;
    Alcotest.(check bool) "sum" true (Bits.equal (Bits.add xv yv) (Hw.Sim.peek sim "sum"));
    Alcotest.(check bool) "diff" true (Bits.equal (Bits.sub xv yv) (Hw.Sim.peek sim "diff"));
    Alcotest.(check bool) "xor" true (Bits.equal (Bits.logxor xv yv) (Hw.Sim.peek sim "xor"));
    Alcotest.(check bool) "ult" (Bits.ult xv yv) (Hw.Sim.peek_bool sim "ult");
    Alcotest.(check bool) "select" true
      (Bits.equal (Bits.select xv ~hi:127 ~lo:64) (Hw.Sim.peek sim "hi"))
  done

(* Run a real tier-1 workload on the compiled backend: the full MD5
   multithreaded datapath, checked against the RFC 1321 reference. *)
let test_md5_on_compiled () =
  let msgs = [ "abc"; "message digest"; String.make 70 'a' ] in
  let circuit =
    Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced
      ~threads:(List.length msgs) ()
  in
  let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled circuit in
  Alcotest.(check string) "backend" "compiled" (Hw.Sim.backend_name sim);
  let digests = Md5.Md5_host.hash_messages ~limit:20000 sim msgs in
  List.iter2
    (fun msg got ->
      Alcotest.(check string)
        (Printf.sprintf "md5(%S) on compiled backend" msg)
        (Md5.Md5_ref.digest msg) got)
    msgs digests

(* And the multithreaded CPU: run the same program on both backends
   and compare cycle counts and final architectural state. *)
let test_cpu_on_compiled () =
  let threads = 2 in
  let program =
    "addi r1, r0, 1071\n\
     addi r2, r0, 462\n\
     loop: beq r1, r2, done\n\
     blt r1, r2, swap\n\
     sub r1, r1, r2\n\
     j loop\n\
     swap: sub r2, r2, r1\n\
     j loop\n\
     done: sw r1, 0(r0)\n\
     halt\n"
  in
  let words = Cpu.Asm.assemble_words program in
  let config =
    { (Cpu.Mt_pipeline.default_config ~threads) with
      Cpu.Mt_pipeline.imem_size = 64; dmem_size = 32 }
  in
  let run backend =
    let circuit, t = Cpu.Mt_pipeline.circuit config in
    let sim = Hw.Sim.create ~backend circuit in
    Cpu.Mt_pipeline.load_program sim t words;
    Hw.Sim.settle sim;
    let cycles = Cpu.Mt_pipeline.run_until_halted sim ~limit:30000 in
    Alcotest.(check bool)
      (Hw.Sim.backend_to_string backend ^ " halted")
      true (cycles <> None);
    let regs =
      List.init threads (fun th ->
          List.init 4 (fun r -> Cpu.Mt_pipeline.read_reg sim t ~thread:th ~reg:r))
    in
    let mem = List.init 4 (fun a -> Cpu.Mt_pipeline.read_dmem sim t a) in
    (regs, mem, cycles, Hw.Sim.peek_int sim "retired_total")
  in
  let ri = run Hw.Sim.Interp and rc = run Hw.Sim.Compiled in
  let pp_state (regs, mem, cycles, retired) =
    Printf.sprintf "regs=%s mem=%s cycles=%s retired=%d"
      (String.concat "|"
         (List.map (fun l -> String.concat "," (List.map string_of_int l)) regs))
      (String.concat "," (List.map string_of_int mem))
      (match cycles with Some c -> string_of_int c | None -> "-")
      retired
  in
  Alcotest.(check string) "cpu state matches" (pp_state ri) (pp_state rc);
  let _, _, _, retired = rc in
  Alcotest.(check bool) "instructions retired" true (retired > 0)

(* Optimizer equivalence on the real designs: co-simulate each tier-1
   workload (MD5 datapath, MT processor, a barrier graph)
   optimized-vs-unoptimized under random stimulus for several hundred
   cycles, on both backends.  Random circuits (above) cover node-kind
   corners; these cover the idioms the word-level rewrites target —
   arbiters, thermometer masks, priority grants, elastic control. *)
let test_optimizer_cosim_real_designs () =
  let cosim ?(cycles = 300) ~seed ?(prep = fun _ -> ()) make_circuit =
    List.iter
      (fun backend ->
        let circuit = make_circuit () in
        let plain = Hw.Sim.create ~backend ~optimize:false circuit in
        let opt = Hw.Sim.create ~backend ~optimize:true circuit in
        prep plain;
        prep opt;
        drive_lockstep ~cycles (Random.State.make [| seed |]) plain opt)
      [ Hw.Sim.Interp; Hw.Sim.Compiled ]
  in
  cosim ~seed:0x3d5 (fun () ->
      Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:4 ());
  let cpu_config =
    { (Cpu.Mt_pipeline.default_config ~threads:2) with
      Cpu.Mt_pipeline.imem_size = 64; dmem_size = 32 }
  in
  let program =
    Cpu.Asm.assemble_words
      "addi r1, r0, 1\nloop: add r2, r2, r1\nsw r2, 0(r1)\nlw r3, 0(r1)\n\
       bne r3, r0, loop\nhalt\n"
  in
  let cpu_tag = ref None in
  cosim ~seed:0xc90
    ~prep:(fun sim ->
      Cpu.Mt_pipeline.load_program sim (Option.get !cpu_tag) program)
    (fun () ->
      let circuit, t = Cpu.Mt_pipeline.circuit cpu_config in
      cpu_tag := Some t;
      circuit);
  let module D = Synth.Dataflow in
  cosim ~cycles:400 ~seed:0xba2 (fun () ->
      let g = D.create ~threads:3 () in
      let x = D.input g ~name:"x" ~width:16 in
      let x = D.buffer g x in
      let y = D.barrier g ~name:"bar" x in
      let y = D.buffer g y in
      D.output g ~name:"y" y;
      D.circuit g)

(* Double-settle regression: with the dirty-flag gating, a repeated
   [settle] with nothing poked must be a no-op, and every
   state-changing boundary — [poke], [mem_write], [cycle], [reset] —
   must still invalidate the settled values.  Checked with directed
   expected values (not just cross-backend agreement, which a
   both-backends-stale bug would pass). *)
let test_settle_dirty_boundaries () =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 in
  let count =
    S.reg_fb b ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 3))
  in
  ignore (S.output b "sum" (S.add b x count));
  let mem = S.Memory.create b ~name:"m" ~size:4 ~width:8 () in
  S.Memory.write b mem ~we:(S.input b "we" 1)
    ~addr:(S.input b "waddr" 2) ~data:x;
  ignore
    (S.output b "r" (S.Memory.read_async b mem ~addr:(S.input b "raddr" 2)));
  let circuit = Hw.Circuit.create b in
  let si, sc = both circuit in
  let each f = f si; f sc in
  let expect tag name v =
    List.iter
      (fun sim ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s (%s)" tag name (Hw.Sim.backend_name sim))
          v (Hw.Sim.peek_int sim name))
      [ si; sc ]
  in
  each Hw.Sim.settle;
  expect "initial" "sum" 0;
  each Hw.Sim.settle (* no poke since the last settle: must change nothing *);
  expect "repeated settle" "sum" 0;
  (* The settle after a poke must NOT be skipped as redundant, even
     though the settle right before it ran with nothing dirty. *)
  each (fun s -> Hw.Sim.poke_int s "x" 7);
  each Hw.Sim.settle;
  expect "poke then settle" "sum" 7;
  each Hw.Sim.settle;
  expect "poke then repeated settle" "sum" 7;
  each Hw.Sim.cycle (* count := 3 *);
  expect "after cycle" "sum" 10;
  each Hw.Sim.settle;
  expect "cycle then settle" "sum" 10;
  (* mem_write must invalidate the settled combinational read cone. *)
  each (fun s -> Hw.Sim.poke_int s "raddr" 2);
  each Hw.Sim.settle;
  expect "read before mem_write" "r" 0;
  each (fun s -> Hw.Sim.mem_write s mem 2 (Bits.of_int ~width:8 99));
  each Hw.Sim.settle;
  expect "mem_write then settle" "r" 99;
  (* A committed write port lands too: we=1, waddr=2 overwrites. *)
  each (fun s ->
      Hw.Sim.poke_int s "we" 1;
      Hw.Sim.poke_int s "waddr" 2;
      Hw.Sim.poke_int s "x" 5;
      Hw.Sim.cycle s);
  expect "port write visible" "r" 5;
  expect "after second cycle" "sum" 11 (* count = 6, x = 5 *);
  each Hw.Sim.reset;
  expect "after reset" "sum" 0;
  expect "after reset (mem)" "r" 0;
  each Hw.Sim.settle;
  expect "reset then settle" "sum" 0;
  check_outputs "final cross-backend" si sc

(* Both backends must reject unknown peek/poke names with the shared
   structured error, including near-miss suggestions. *)
let test_unknown_signal () =
  let b = S.Builder.create () in
  let x = S.input b "enable" 1 in
  ignore (S.output b "counter" (S.reg_fb b ~enable:x ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 1))));
  let circuit = Hw.Circuit.create b in
  List.iter
    (fun backend ->
      let sim = Hw.Sim.create ~backend circuit in
      let tag = Hw.Sim.backend_to_string backend in
      (try
         ignore (Hw.Sim.peek sim "countr");
         Alcotest.failf "%s: peek of unknown name succeeded" tag
       with Hw.Sim_intf.Unknown_signal { op; name; candidates; _ } ->
         Alcotest.(check string) (tag ^ " op") "peek" op;
         Alcotest.(check string) (tag ^ " name") "countr" name;
         Alcotest.(check bool) (tag ^ " suggests counter") true
           (List.mem "counter" candidates));
      (try
         Hw.Sim.poke sim "enabel" (Bits.of_int ~width:1 1);
         Alcotest.failf "%s: poke of unknown name succeeded" tag
       with Hw.Sim_intf.Unknown_signal { op; candidates; _ } ->
         Alcotest.(check string) (tag ^ " poke op") "poke" op;
         Alcotest.(check bool) (tag ^ " suggests enable") true
           (List.mem "enable" candidates));
      (* The registered printer renders the suggestions. *)
      (try ignore (Hw.Sim.peek_int sim "countr")
       with exn ->
         let msg = Printexc.to_string exn in
         let contains sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         Alcotest.(check bool) (tag ^ " printable") true
           (contains "countr" && contains "counter")))
    [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

(* ---- ports ---- *)

let port_backends = [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

(* Drive every simulator of [circuit] (interp first, the reference)
   through ports with identical random traffic, checking every output
   port with [read] and — when it fits an int — [read_int] after each
   settle and cycle.  Half the values repeat what the input already
   holds, and every value is written twice, so the compiled backends'
   equal-value elision is exercised on every cycle. *)
let ports_lockstep ?(cycles = 25) st circuit =
  let sims = List.map (fun backend -> Hw.Sim.create ~backend circuit) port_backends in
  let inputs =
    Hashtbl.fold
      (fun name (s : S.t) acc -> (name, s.S.width) :: acc)
      circuit.Hw.Circuit.inputs []
    |> List.sort compare |> Array.of_list
  in
  let outputs = List.map fst circuit.Hw.Circuit.outputs in
  let resolved =
    List.map
      (fun sim ->
        ( sim,
          Array.map (fun (n, _) -> Hw.Sim.input_port sim n) inputs,
          List.map (fun n -> (n, Hw.Sim.port sim n)) outputs ))
      sims
  in
  let check tag =
    match resolved with
    | [] -> ()
    | (ref_sim, _, ref_outs) :: others ->
      let expect = List.map (fun (_, p) -> Hw.Sim.read ref_sim p) ref_outs in
      List.iter
        (fun (sim, _, outs) ->
          List.iter2
            (fun (n, p) e ->
              let got = Hw.Sim.read sim p in
              if not (Bits.equal got e) then
                Alcotest.failf "%s: %s read %S = %s, interp %s" tag
                  (Hw.Sim.backend_name sim) n (Bits.to_string got)
                  (Bits.to_string e);
              if Hw.Sim.port_width p <= Bits.max_int_width
                 && Hw.Sim.read_int sim p <> Bits.to_int e
              then
                Alcotest.failf "%s: %s read_int %S differs" tag
                  (Hw.Sim.backend_name sim) n)
            outs expect)
        others
  in
  let held = Array.map (fun (_, w) -> Bits.zero w) inputs in
  for c = 1 to cycles do
    Array.iteri
      (fun k (_, w) ->
        if Random.State.bool st then held.(k) <- Bits.random st ~width:w;
        let v = held.(k) in
        List.iter
          (fun (sim, ins, _) ->
            for _ = 1 to 2 do
              if w <= Bits.max_int_width && Random.State.bool st then
                Hw.Sim.write_int sim ins.(k) (Bits.to_int v)
              else Hw.Sim.write sim ins.(k) v
            done)
          resolved)
      inputs;
    List.iter (fun (sim, _, _) -> Hw.Sim.settle sim) resolved;
    check (Printf.sprintf "settle %d" c);
    List.iter (fun (sim, _, _) -> Hw.Sim.cycle sim) resolved;
    check (Printf.sprintf "cycle %d" c)
  done

(* Random circuits span widths 1..96, so ports wider than
   [Bits.max_int_width] are covered. *)
let test_ports_random_circuits () =
  let st = Random.State.make [| 0x9047 |] in
  for _ = 1 to 3 do
    ports_lockstep st (random_circuit st)
  done

(* A name [Transform.optimize] folds onto another node survives as an
   alias, and a port on it reads that node on the optimizing backends. *)
let test_ports_optimizer_alias () =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 and y = S.input b "y" 8 in
  let w = S.input b "w" 80 in
  let acc =
    S.set_name (S.reg_fb b ~width:8 (fun q -> S.add b q (S.add b x y))) "acc"
  in
  ignore (S.set_name (S.add b x y) "sum_a");
  ignore (S.set_name (S.add b y x) "sum_b");
  ignore (S.output b "mix" (S.lxor_ b acc (S.add b y x)));
  ignore (S.output b "wide" (S.add b w (S.uresize b acc 80)));
  let circuit = Hw.Circuit.create b in
  let opt = Hw.Sim.create ~backend:Hw.Sim.Compiled circuit in
  let c' = Hw.Sim.circuit opt in
  Alcotest.(check bool) "sum_b merged into sum_a" true
    (Hw.Circuit.find_named c' "sum_a" == Hw.Circuit.find_named c' "sum_b");
  let st = Random.State.make [| 0xa11a5 |] in
  ports_lockstep st circuit;
  let sims = List.map (fun backend -> Hw.Sim.create ~backend circuit) port_backends in
  List.iter
    (fun sim ->
      Hw.Sim.write_int sim (Hw.Sim.input_port sim "x") 5;
      Hw.Sim.write_int sim (Hw.Sim.input_port sim "y") 9;
      Hw.Sim.settle sim;
      Alcotest.(check int)
        (Hw.Sim.backend_name sim ^ " alias port")
        14
        (Hw.Sim.read_int sim (Hw.Sim.port sim "sum_b")))
    sims

(* [port]/[input_port] reject a misspelt name with the same structured
   error and candidates as the by-name [peek]/[poke]; [write] rejects
   a read-only port and a value of the wrong width. *)
let test_port_errors () =
  let b = S.Builder.create () in
  let x = S.input b "enable" 1 in
  ignore (S.output b "counter" (S.reg_fb b ~enable:x ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 1))));
  let circuit = Hw.Circuit.create b in
  let candidates f =
    match f () with
    | _ -> Alcotest.fail "unknown name resolved"
    | exception Hw.Sim_intf.Unknown_signal { op; candidates; _ } -> (op, candidates)
  in
  List.iter
    (fun backend ->
      let sim = Hw.Sim.create ~backend circuit in
      let tag = Hw.Sim.backend_to_string backend in
      let peek_op, peek_c = candidates (fun () -> ignore (Hw.Sim.peek sim "countr")) in
      let port_op, port_c = candidates (fun () -> ignore (Hw.Sim.port sim "countr")) in
      Alcotest.(check string) (tag ^ " peek op") "peek" peek_op;
      Alcotest.(check string) (tag ^ " port op") "port" port_op;
      Alcotest.(check (list string)) (tag ^ " port candidates") peek_c port_c;
      Alcotest.(check bool) (tag ^ " suggests counter") true (List.mem "counter" port_c);
      let _, poke_c =
        candidates (fun () -> Hw.Sim.poke sim "enabel" (Bits.of_int ~width:1 1))
      in
      let in_op, in_c = candidates (fun () -> ignore (Hw.Sim.input_port sim "enabel")) in
      Alcotest.(check string) (tag ^ " input_port op") "input_port" in_op;
      Alcotest.(check (list string)) (tag ^ " input_port candidates") poke_c in_c;
      let rejects what f =
        match f () with
        | () -> Alcotest.failf "%s: %s accepted" tag what
        | exception Invalid_argument _ -> ()
      in
      rejects "write to a read-only port" (fun () ->
          Hw.Sim.write_int sim (Hw.Sim.port sim "enable") 1);
      rejects "write of the wrong width" (fun () ->
          Hw.Sim.write sim (Hw.Sim.input_port sim "enable") (Bits.zero 2)))
    port_backends

(* ---- native JIT backend ---- *)

(* Same randomized lockstep as the compiled backend, with the JIT as
   the device under test.  Fewer circuits than the compiled run: each
   distinct netlist is a real ocamlopt invocation on a cold cache
   (kernels are cached on disk afterwards). *)
let test_jit_random_circuits () =
  let st = Random.State.make [| 0x217 |] in
  for _ = 1 to 4 do
    let circuit = random_circuit st in
    let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
    let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
    drive_lockstep ~cycles:20 st si sj
  done

(* The threaded-code specializer (the no-toolchain fallback) must be
   just as bit-exact; it is cheap to build, so cover more circuits. *)
let test_jit_fallback_equivalence () =
  with_forced_fallback (fun () ->
      let st = Random.State.make [| 0x3ab |] in
      for _ = 1 to 8 do
        let circuit = random_circuit st in
        let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
        let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
        drive_lockstep ~cycles:20 st si sj
      done)

let md5_jit_circuit () =
  Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~probes:true ~threads:2 ()

(* End-to-end digest check on the JIT backend against RFC 1321. *)
let test_md5_on_jit () =
  let msgs = [ "abc"; "message digest" ] in
  let sim = Hw.Sim.create ~backend:Hw.Sim.Jit (md5_jit_circuit ()) in
  let digests = Md5.Md5_host.hash_messages ~limit:20000 sim msgs in
  List.iter2
    (fun msg got ->
      Alcotest.(check string)
        (Printf.sprintf "md5(%S) on jit backend" msg)
        (Md5.Md5_ref.digest msg) got)
    msgs digests

(* The batched free-run ([Hw.Sim.cycles] with no observers) must be
   bit-identical to stepping [cycle] in a loop — across the generated
   loop's internal chunk boundary (1024) — and must leave the instance
   consistent for further stepping.  With a multi-domain settle the
   JIT declines the batch and the host loops [cycle]; that path, and
   the partitioned-parallel settle itself, must agree too. *)
let test_jit_cycles_batching () =
  let watch = [ "round_counter"; "sync_ok" ] in
  let run ~domains =
    let circuit = md5_jit_circuit () in
    let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
    let sc = Hw.Sim.create ~backend:Hw.Sim.Compiled circuit in
    Hw.Sim_jit.set_domains domains;
    Fun.protect
      ~finally:(fun () -> Hw.Sim_jit.set_domains 1)
      (fun () ->
        let tag = Printf.sprintf "domains=%d" domains in
        let compare_watch phase =
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: probe %s" tag phase name)
                true
                (Bits.equal (Hw.Sim.peek sc name) (Hw.Sim.peek sj name)))
            watch
        in
        List.iter
          (fun s ->
            Hw.Sim.poke_int s "msg_valid" 3;
            Hw.Sim.poke_int s "digest_ready" 3)
          [ sj; sc ];
        Hw.Sim.cycles sj 1100;
        for _ = 1 to 1100 do Hw.Sim.cycle sc done;
        check_outputs (tag ^ " batched vs stepped") sc sj;
        compare_watch "batched";
        (* The instance must keep working after the batch. *)
        List.iter (fun s -> Hw.Sim.poke_int s "msg_valid" 0) [ sj; sc ];
        Hw.Sim.cycles sj 7;
        for _ = 1 to 7 do Hw.Sim.cycle sc done;
        check_outputs (tag ^ " post-batch stepping") sc sj;
        compare_watch "post-batch")
  in
  run ~domains:1;
  run ~domains:2

(* The kernel cache key digests every compiled interface, so editing
   an inner module's interface (here [hw__Sim_jit.cmi], which the dune
   alias [hw.cmi] does not reflect) is a cache miss, not a stale load. *)
let test_jit_fingerprint_inner_cmi () =
  let dir = Filename.temp_file "elastic_fp" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let write f content =
    let oc = open_out_bin (path f) in
    output_string oc content;
    close_out oc
  in
  let files = [ "hw.cmi"; "hw__Sim_jit.cmi"; "hw__Sim_jit.cmx"; "hw__Sim_jit.cmt" ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove (path f) with Sys_error _ -> ()) files;
      Sys.rmdir dir)
    (fun () ->
      List.iter (fun f -> write f ("v1 " ^ f)) files;
      let fp () = Hw.Sim_jit.iface_fingerprint_of [ dir ] in
      let before = fp () in
      write "hw__Sim_jit.cmt" "v2";
      Alcotest.(check string) "non-interface file ignored" before (fp ());
      write "hw__Sim_jit.cmi" "v2";
      let after_cmi = fp () in
      Alcotest.(check bool) "inner .cmi changes the key" true (before <> after_cmi);
      write "hw__Sim_jit.cmx" "v2";
      Alcotest.(check bool) "inner .cmx changes the key" true (after_cmi <> fp ()))

let suite =
  ( "sim-backends",
    [ Alcotest.test_case "random circuits lockstep" `Quick test_random_circuits;
      Alcotest.test_case "unknown signal error (both)" `Quick
        test_unknown_signal;
      Alcotest.test_case "ports lockstep on random circuits (all)" `Quick
        test_ports_random_circuits;
      Alcotest.test_case "ports on optimizer aliases (all)" `Quick
        test_ports_optimizer_alias;
      Alcotest.test_case "port errors match peek/poke (all)" `Quick
        test_port_errors;
      Alcotest.test_case "jit cache key covers inner interfaces" `Quick
        test_jit_fingerprint_inner_cmi;
      Alcotest.test_case "reset equivalence" `Quick test_reset_equivalence;
      Alcotest.test_case "mux clamp (compiled)" `Quick test_mux_clamp_compiled;
      Alcotest.test_case "memory port priority (both)" `Quick
        test_mem_port_priority_compiled;
      Alcotest.test_case "wide arithmetic (compiled)" `Quick test_wide_arith_compiled;
      Alcotest.test_case "md5 workload (compiled)" `Quick test_md5_on_compiled;
      Alcotest.test_case "cpu cosim interp vs compiled" `Quick test_cpu_on_compiled;
      Alcotest.test_case "optimizer cosim on real designs" `Quick
        test_optimizer_cosim_real_designs;
      Alcotest.test_case "settle dirty-flag boundaries (both)" `Quick
        test_settle_dirty_boundaries;
      Alcotest.test_case "jit random circuits lockstep" `Quick
        test_jit_random_circuits;
      Alcotest.test_case "jit fallback specializer lockstep" `Quick
        test_jit_fallback_equivalence;
      Alcotest.test_case "md5 workload (jit)" `Quick test_md5_on_jit;
      Alcotest.test_case "jit batched cycles vs stepping" `Quick
        test_jit_cycles_batching ] )
