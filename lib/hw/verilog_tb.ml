(* Self-checking Verilog testbench generation.

   Attach a recorder to a running simulation: every cycle it captures
   the primary-input values and the values of selected output signals.
   [emit] then produces a standalone Verilog testbench that
   instantiates the module produced by [Verilog], replays the recorded
   stimulus cycle by cycle, and compares the outputs against the
   recorded values — so the OCaml simulator's behaviour can be
   cross-checked under iverilog/Verilator outside this container. *)

type sample = {
  inputs : (string * Bits.t) list;
  outputs : (string * Bits.t) list;
}

type t = {
  circuit : Circuit.t;
  output_names : string list;
  mutable samples : sample list; (* reverse order *)
}

let attach sim ~outputs =
  let circuit = Sim.circuit sim in
  (* Outputs whose names collide with inputs are not DUT ports (the
     Verilog back end drops them); don't check them either. *)
  let outputs =
    List.filter (fun n -> not (Hashtbl.mem circuit.Circuit.inputs n)) outputs
  in
  let t = { circuit; output_names = outputs; samples = [] } in
  let ports resolve names = List.map (fun n -> (n, resolve sim n)) names in
  let input_ports =
    ports Sim.input_port
      (List.sort compare
         (Hashtbl.fold (fun n _ acc -> n :: acc) circuit.Circuit.inputs []))
  in
  let output_ports = ports Sim.port outputs in
  let sample = List.map (fun (n, p) -> (n, Sim.read sim p)) in
  Sim.on_cycle sim (fun _ ->
      t.samples <-
        { inputs = sample input_ports; outputs = sample output_ports }
        :: t.samples);
  t

let emit ?(module_name = "top") ?(tb_name = "tb") t buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let samples = List.rev t.samples in
  let input_decls =
    Hashtbl.fold (fun n s acc -> (n, s.Signal.width) :: acc) t.circuit.Circuit.inputs []
    |> List.sort compare
  in
  let output_decls =
    List.map
      (fun n -> (n, (Circuit.find_named t.circuit n).Signal.width))
      t.output_names
  in
  pr "// Self-checking testbench generated from a recorded simulation\n";
  pr "`timescale 1ns/1ps\n";
  pr "module %s;\n" tb_name;
  pr "  reg clk = 0;\n";
  List.iter (fun (n, w) -> pr "  reg %s%s;\n" (Verilog.width_decl w) n) input_decls;
  List.iter (fun (n, w) -> pr "  wire %s%s;\n" (Verilog.width_decl w) n) output_decls;
  pr "  integer errors = 0;\n\n";
  pr "  %s dut (\n    .clk(clk)" module_name;
  List.iter (fun (n, _) -> pr ",\n    .%s(%s)" n n) input_decls;
  List.iter (fun (n, _) -> pr ",\n    .%s(%s)" n n) output_decls;
  pr "\n  );\n\n";
  pr "  always #5 clk = ~clk;\n\n";
  pr "  task check(input [255:0] name, input [511:0] got, input [511:0] expect_);\n";
  pr "    if (got !== expect_) begin\n";
  pr "      $display(\"MISMATCH cycle=%%0d signal=%%0s got=%%h expected=%%h\", cycle, name, got, expect_);\n";
  pr "      errors = errors + 1;\n";
  pr "    end\n";
  pr "  endtask\n\n";
  pr "  integer cycle = 0;\n";
  pr "  initial begin\n";
  List.iteri
    (fun i sample ->
      pr "    // cycle %d\n" i;
      pr "    cycle = %d;\n" i;
      List.iter
        (fun (n, v) -> pr "    %s = %s;\n" n (Verilog.bits_literal v))
        sample.inputs;
      pr "    #1;\n";
      List.iter
        (fun (n, v) ->
          pr "    check(\"%s\", %s, %s);\n" n n (Verilog.bits_literal v))
        sample.outputs;
      pr "    @(posedge clk); #1;\n")
    samples;
  pr "    if (errors == 0) $display(\"TESTBENCH PASS (%d cycles)\");\n"
    (List.length samples);
  pr "    else $display(\"TESTBENCH FAIL: %%0d mismatches\", errors);\n";
  pr "    $finish;\n";
  pr "  end\n";
  pr "endmodule\n"

let to_string ?module_name ?tb_name t =
  let buf = Buffer.create 16384 in
  emit ?module_name ?tb_name t buf;
  Buffer.contents buf

(* Write both the DUT and its testbench next to each other. *)
let write_with_dut ?(module_name = "top") t ~dut_path ~tb_path =
  Verilog.write ~module_name t.circuit ~path:dut_path;
  let out = open_out tb_path in
  output_string out (to_string ~module_name t);
  close_out out
