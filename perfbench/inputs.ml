(* Workload inputs, a pure function of the seed.  The program under test
   only ever sees what these functions return; the generators use the
   stdlib PRNG, so no library change can alter the inputs.  Arrival
   times are open-loop in simulated cycles: a request is due at its
   cycle whether or not earlier ones have finished. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5e7ed |]

(* [count] arrival cycles spread as a Poisson process of [rate]
   jobs/cycle conditioned on its count: uniform over [0, count / rate),
   sorted.  Conditioning fixes the offered load exactly, so seeds differ
   in timing and order, not in how much work arrives. *)
let arrivals rng ~rate ~count =
  let span = float_of_int count /. rate in
  let a = Array.init count (fun _ -> int_of_float (Random.State.float rng span)) in
  Array.sort compare a;
  a

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let printable rng n = String.init n (fun _ -> Char.chr (32 + Random.State.int rng 95))

(* [count] messages with a fixed block-count mix — 85% single-block
   (<= 55 bytes pad to one 64-byte block), the rest spread evenly over
   2 to 5 blocks — in seeded order, with seeded lengths within each
   block count and seeded bytes. *)
let md5_messages rng count =
  let blocks =
    shuffle rng
      (Array.init count (fun i ->
           let tail = count - (count * 85 / 100) in
           if i < count - tail then 1 else 2 + ((i - (count - tail)) mod 4)))
  in
  Array.map
    (fun k ->
      let lo = if k = 1 then 0 else (64 * (k - 1)) - 8 in
      printable rng (lo + Random.State.int rng (64 * k - 8 - lo)))
    blocks

type md5_serve = { m_arrivals : int array; m_messages : string array }

let md5_serve ~seed ~jobs ~rate =
  let r = rng ~seed ~salt:1 in
  let m_arrivals = arrivals r ~rate ~count:jobs in
  { m_arrivals; m_messages = md5_messages r jobs }

(* A looping program: [trips] iterations of add / mul / store / load /
   xor, folding an argument register in.  Every job leaves a distinct
   register file, and its data-memory traffic stays in the slot's own
   region (addressed through the base register r15). *)
let cpu_program rng ~trips =
  let k = 1 + Random.State.int rng 4000 in
  let arg = Random.State.int rng 100_000 in
  { Serve.Cpu_backend.source =
      Printf.sprintf
        "li r1, %d\n\
         li r3, %d\n\
         loop: add r2, r2, r1\n\
         mul r4, r2, r3\n\
         sw r4, 0(r15)\n\
         lw r5, 0(r15)\n\
         xor r6, r6, r5\n\
         add r6, r6, r7\n\
         addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         halt"
        trips k;
    args = [ (7, arg) ] }

type cpu_overload = { c_arrivals : int array; c_programs : Serve.Cpu_backend.job array }

let cpu_overload ~seed ~jobs ~rate =
  let r = rng ~seed ~salt:2 in
  let c_arrivals = arrivals r ~rate ~count:jobs in
  (* loop trip counts 2..8 in equal shares: each run of 7 consecutive
     jobs holds every count once, in seeded order, so no seed front-loads
     long or short programs *)
  let trips = Array.make jobs 0 in
  for b = 0 to (jobs - 1) / 7 do
    let perm = shuffle r (Array.init 7 (fun i -> 2 + i)) in
    Array.iteri (fun i t -> if (7 * b) + i < jobs then trips.((7 * b) + i) <- t) perm
  done;
  { c_arrivals; c_programs = Array.map (fun trips -> cpu_program r ~trips) trips }

(* Fleet trace: [periods] repetitions of a burst of [burst_cycles] at
   [burst_rate] requests/cycle followed by [calm_cycles] at [calm_rate],
   each phase's arrivals spread as in [arrivals].  A share [hot_share]
   of requests picks one of [hot_keys] hot messages (Zipf, exponent 1),
   so repeats hit the cache or coalesce onto an in-flight twin; the rest
   are fresh messages with the md5_serve block mix. *)
type fleet_burst = { f_arrivals : int array; f_messages : string array }

let fleet_burst ~seed ~periods ~burst_cycles ~burst_rate ~calm_cycles ~calm_rate
    ~hot_keys ~hot_share =
  let r = rng ~seed ~salt:3 in
  let hot = md5_messages r hot_keys in
  let zipf_cdf =
    let w = Array.init hot_keys (fun i -> 1.0 /. float_of_int (i + 1)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let pick_hot () =
    let u = Random.State.float r 1.0 in
    let i = ref 0 in
    while !i < hot_keys - 1 && zipf_cdf.(!i) < u do
      incr i
    done;
    hot.(!i)
  in
  let phase ~start ~cycles ~rate =
    Array.map (fun a -> start + a) (arrivals r ~rate ~count:(int_of_float (rate *. float_of_int cycles)))
  in
  let period = burst_cycles + calm_cycles in
  let f_arrivals =
    Array.concat
      (List.concat
         (List.init periods (fun p ->
              [ phase ~start:(p * period) ~cycles:burst_cycles ~rate:burst_rate;
                phase ~start:((p * period) + burst_cycles) ~cycles:calm_cycles ~rate:calm_rate ])))
  in
  let n = Array.length f_arrivals in
  let n_hot = int_of_float (hot_share *. float_of_int n) in
  let is_hot = shuffle r (Array.init n (fun i -> i < n_hot)) in
  let cold = md5_messages r (n - n_hot) in
  let next_cold = ref 0 in
  let f_messages =
    Array.map
      (fun h ->
        if h then pick_hot ()
        else begin
          incr next_cold;
          cold.(!next_cold - 1)
        end)
      is_hot
  in
  { f_arrivals; f_messages }
