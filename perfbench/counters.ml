(* OCaml side of counters.c: instruction counter, monotonic clock, peak
   RSS.  [open_instr] must run on the thread that is measured; the
   counter then counts only that thread's user-mode instructions. *)

external instr_open_errno : unit -> int = "perfbench_instr_open"

external instr : unit -> (int[@untagged])
  = "perfbench_instr_read" "perfbench_instr_read_untagged"
[@@noalloc]

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_untagged"
[@@noalloc]

external peak_rss_kb : unit -> int = "perfbench_peak_rss_kb"

let fail fmt = Printf.ksprintf failwith fmt

(* A fixed loop whose retired-instruction count must repeat: the
   counter is only trusted once it does. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  Sys.opaque_identity !acc

let self_test () =
  let counts =
    List.init 5 (fun _ ->
        let a = instr () in
        ignore (spin 1_000_000);
        instr () - a)
  in
  let lo = List.fold_left min max_int counts
  and hi = List.fold_left max 0 counts in
  if lo < 1_000_000 || float_of_int (hi - lo) > 1e-3 *. float_of_int lo then
    fail "instruction counter self-test: a fixed loop counted %s"
      (String.concat ", " (List.map string_of_int counts))

let open_instr () =
  match instr_open_errno () with
  | 0 ->
    if instr () < 0 then fail "instruction counter opened but cannot be read";
    self_test ()
  | errno ->
    fail
      "cannot open the user-mode instruction counter (perf_event_open, errno \
       %d); check /proc/sys/kernel/perf_event_paranoid (must be <= 2) and \
       that the CPU's performance counters are exposed"
      errno
