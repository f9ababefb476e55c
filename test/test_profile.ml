(* The telemetry spine: Melastic.Histogram edge cases, channel
   profiles (hardware + host halves, JSON round trip), placement
   lookup and the Synth.Retime sizing pass, including the NoC
   per-link slot overrides it feeds. *)

module H = Melastic.Histogram
module P = Melastic.Placement
module Profile = Melastic.Profile
module S = Hw.Signal
module Mc = Melastic.Mt_channel

(* ---- Histogram edges ---- *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "sum" 0 (H.sum h);
  Alcotest.(check int) "nonzero" 0 (H.nonzero h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (H.mean h);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "empty p%.2f" p)
        0 (H.percentile h p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check (list (pair int int))) "no buckets" [] (H.buckets h)

let test_hist_single_sample () =
  let h = H.create () in
  H.add h 12_345;
  Alcotest.(check int) "count" 1 (H.count h);
  Alcotest.(check int) "nonzero" 1 (H.nonzero h);
  Alcotest.(check (float 0.001)) "mean" 12_345.0 (H.mean h);
  (* Every percentile of a single sample is that sample, exactly:
     the bucket edge overshoots but the observed max clamps it. *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%.2f" p)
        12_345 (H.percentile h p))
    [ 0.0; 0.5; 1.0 ]

let test_hist_merge_disjoint_octaves () =
  (* a lives in octave [64,127], b four octaves up in [4096,8191];
     the merge must leave both populations queryable. *)
  let a = H.create () and b = H.create () in
  for _ = 1 to 100 do
    H.add a 70
  done;
  for _ = 1 to 100 do
    H.add b 5_000
  done;
  H.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 200 (H.count a);
  Alcotest.(check int) "merged max exact" 5_000 (H.max_value a);
  Alcotest.(check int) "merged sum" ((100 * 70) + (100 * 5_000)) (H.sum a);
  let p25 = H.percentile a 0.25 and p75 = H.percentile a 0.75 in
  Alcotest.(check bool) "p25 >= 70" true (p25 >= 70);
  Alcotest.(check bool) "p25 within 3.2%" true (float_of_int p25 <= 1.032 *. 70.0);
  Alcotest.(check bool) "p75 >= 5000" true (p75 >= 5_000);
  Alcotest.(check bool) "p75 within 3.2%" true
    (float_of_int p75 <= 1.032 *. 5_000.0);
  Alcotest.(check int) "b untouched" 100 (H.count b)

let test_hist_huge_values_bound () =
  (* Far above the exact range (top octaves), the <= 3.2% relative
     overshoot bound still holds and the max stays exact. *)
  let v1 = (1 lsl 40) + 12_345 and v2 = (1 lsl 50) + 999 in
  let h = H.create () in
  for _ = 1 to 100 do
    H.add h v1
  done;
  for _ = 1 to 100 do
    H.add h v2
  done;
  let p25 = H.percentile h 0.25 in
  Alcotest.(check bool) "p25 >= true" true (p25 >= v1);
  Alcotest.(check bool) "p25 within 3.2%" true
    (float_of_int p25 <= 1.032 *. float_of_int v1);
  Alcotest.(check int) "p100 exact max" v2 (H.percentile h 1.0);
  Alcotest.(check int) "max exact" v2 (H.max_value h)

let test_hist_bucket_roundtrip () =
  let h = H.create () in
  List.iter (H.add h) [ 0; 0; 3; 63; 64; 1_000; 123_456 ];
  let h2 = H.of_buckets ~sum:(H.sum h) ~max_value:(H.max_value h) (H.buckets h) in
  Alcotest.(check int) "count" (H.count h) (H.count h2);
  Alcotest.(check int) "sum" (H.sum h) (H.sum h2);
  Alcotest.(check int) "max" (H.max_value h) (H.max_value h2);
  Alcotest.(check int) "nonzero" (H.nonzero h) (H.nonzero h2);
  Alcotest.(check (float 0.0001)) "mean" (H.mean h) (H.mean h2);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%.2f" p)
        (H.percentile h p) (H.percentile h2 p))
    [ 0.0; 0.25; 0.5; 0.9; 1.0 ];
  Alcotest.(check (list (pair int int))) "buckets" (H.buckets h) (H.buckets h2)

(* ---- Profile: hardware channels ---- *)

let threads = 3
let tokens_per_thread = 5

(* src --Meb(m)--> snk, with m's occupancy exported the way
   Component.buffer ~export_occupancy does it.  With [upgrade], m is
   first watched without occupancy (as a monitor would) and the
   occupancy request arrives on the already-watched channel. *)
let profiled_run ?(upgrade = false) () =
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads ~width:16 in
  let m = Melastic.Meb.create ~name:"m" ~kind:Melastic.Meb.Reduced b src in
  ignore (S.output b (Melastic.Names.occupancy "m") m.Melastic.Meb.occupancy);
  Mc.sink b ~name:"snk" m.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let p = Profile.attach (Hw.Sampler.attach sim) in
  List.iter
    (fun name -> ignore (Profile.watch_channel p ~name ~threads))
    [ "src"; "snk" ];
  let first = if upgrade then Some (Profile.watch_channel p ~name:"m" ~threads) else None in
  let probe = Profile.watch_channel ~occupancy:true p ~name:"m" ~threads in
  Option.iter
    (fun pr -> Alcotest.(check bool) "same probe" true (pr == probe))
    first;
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width:16 in
  for t = 0 to threads - 1 do
    for i = 1 to tokens_per_thread do
      Workload.Mt_driver.push_int d ~thread:t ((100 * t) + i)
    done
  done;
  Alcotest.(check bool) "drained" true
    (Workload.Mt_driver.run_until_drained d ~limit:500);
  p

let check_channel_stats p =
  Alcotest.(check (list string)) "channels in watch order"
    [ "src"; "snk"; "m" ] (Profile.channel_names p);
  let cs name =
    match Profile.channel p name with
    | Some cs -> cs
    | None -> Alcotest.failf "channel %s missing" name
  in
  let src = cs "src" and snk = cs "snk" and m = cs "m" in
  let total = threads * tokens_per_thread in
  Alcotest.(check int) "src fires" total src.Profile.cs_fires;
  Alcotest.(check int) "snk fires" total snk.Profile.cs_fires;
  Array.iter
    (Alcotest.(check int) "per-thread fires" tokens_per_thread)
    src.Profile.cs_fires_per_thread;
  Alcotest.(check bool) "cycles counted" true (Profile.cycles p > 0);
  Alcotest.(check int) "cycle accounting" (Profile.cycles p)
    (src.Profile.cs_active_cycles + src.Profile.cs_stall_cycles
    + src.Profile.cs_idle_cycles);
  (match m.Profile.cs_occupancy with
   | None -> Alcotest.fail "occupancy histogram missing"
   | Some h -> Alcotest.(check bool) "occupancy sampled" true (H.count h > 0));
  Alcotest.(check bool) "peak occupancy positive" true
    (Profile.peak_occupancy m >= 1);
  Alcotest.(check bool) "peak within capacity" true
    (Profile.peak_occupancy m
     <= Melastic.Meb.capacity ~kind:Melastic.Meb.Reduced ~threads)

let test_profile_channels () = check_channel_stats (profiled_run ())

(* An occupancy request on an already-watched channel must upgrade it,
   the way a [~data] request does, not be dropped. *)
let test_profile_occupancy_upgrade () =
  check_channel_stats (profiled_run ~upgrade:true ())

let test_profile_json_roundtrip () =
  let p = profiled_run () in
  Profile.observe p "queue" 2;
  Profile.observe p "queue" 7;
  let q = Profile.of_json (Profile.to_json p) in
  Alcotest.(check int) "cycles" (Profile.cycles p) (Profile.cycles q);
  Alcotest.(check (list string)) "channel names" (Profile.channel_names p)
    (Profile.channel_names q);
  List.iter
    (fun name ->
      let a = Option.get (Profile.channel p name)
      and b = Option.get (Profile.channel q name) in
      Alcotest.(check int) (name ^ " fires") a.Profile.cs_fires b.Profile.cs_fires;
      Alcotest.(check int) (name ^ " stalls") a.Profile.cs_stall_cycles
        b.Profile.cs_stall_cycles;
      Alcotest.(check int)
        (name ^ " backpressure")
        a.Profile.cs_backpressure_cycles b.Profile.cs_backpressure_cycles;
      Alcotest.(check int) (name ^ " peak")
        (Profile.peak_occupancy a) (Profile.peak_occupancy b))
    (Profile.channel_names p);
  let g = Option.get (Profile.gauge q "queue") in
  Alcotest.(check int) "gauge count" 2 (H.count g);
  Alcotest.(check int) "gauge max" 7 (H.max_value g);
  (* A loaded profile is host-only: watching must raise. *)
  Alcotest.check_raises "host-only"
    (Invalid_argument "Profile: host-only profile has no sampler")
    (fun () -> ignore (Profile.watch_channel q ~name:"x" ~threads:1))

let test_profile_gauges_merge () =
  let a = Profile.create () and b = Profile.create () in
  List.iter (Profile.observe a "qd") [ 1; 2 ];
  List.iter (Profile.observe b "qd") [ 10 ];
  List.iter (Profile.observe b "busy") [ 4 ];
  Profile.merge_gauges ~into:a b;
  Alcotest.(check int) "merged count" 3 (H.count (Option.get (Profile.gauge a "qd")));
  Alcotest.(check int) "new gauge carried" 1
    (H.count (Option.get (Profile.gauge a "busy")));
  Alcotest.(check (list string)) "gauge order" [ "qd"; "busy" ]
    (Profile.gauge_names a)

(* ---- Placement ---- *)

let red1 = { P.kind = Melastic.Meb.Reduced; stages = 1 }
let full2 = { P.kind = Melastic.Meb.Full; stages = 2 }

let test_placement_lookup () =
  let p = P.set (P.uniform Melastic.Meb.Reduced) "special" full2 in
  Alcotest.(check bool) "override wins" true
    (P.find p ~name:"special" ~default:red1 = full2);
  Alcotest.(check bool) "placement default" true
    (P.find p ~name:"other" ~default:full2 = red1);
  Alcotest.(check bool) "circuit default" true
    (P.find P.empty ~name:"other" ~default:full2 = full2);
  Alcotest.(check (list string)) "to_list overrides only" [ "special" ]
    (List.map fst (P.to_list p));
  Alcotest.check_raises "bad stage bounds"
    (Invalid_argument "Placement.site: bad stage bounds") (fun () ->
      ignore (P.site ~min_stages:3 ~max_stages:1 "x"))

(* ---- Retime ---- *)

(* Fabricate a loaded profile via the JSON schema: channel [s1] with
   peak occupancy [peak]; [probe_bp] with heavy backpressure;
   [probe_idle] that never fired. *)
let fake_profile ~cycles ~peak =
  Profile.of_json
    (Printf.sprintf
       {|{"cycles":%d,"channels":[
          {"name":"s1","threads":4,"fires":40,"fires_per_thread":[10,10,10,10],
           "active_cycles":40,"stall_cycles":0,"backpressure_cycles":0,
           "idle_cycles":%d,
           "occupancy":{"count":%d,"sum":%d,"max":%d,"buckets":[[%d,%d]]}},
          {"name":"probe_bp","threads":4,"fires":40,"fires_per_thread":[10,10,10,10],
           "active_cycles":40,"stall_cycles":10,"backpressure_cycles":%d,
           "idle_cycles":0,"occupancy":null},
          {"name":"probe_idle","threads":4,"fires":0,"fires_per_thread":[0,0,0,0],
           "active_cycles":0,"stall_cycles":0,"backpressure_cycles":0,
           "idle_cycles":%d,"occupancy":null}],
          "gauges":[]}|}
       cycles (cycles - 40) cycles (cycles * peak) peak peak cycles
       (cycles / 2) cycles)

let test_retime_decide () =
  let profile = fake_profile ~cycles:100 ~peak:3 in
  let placement, ds =
    Synth.Retime.decide ~profile ~threads:4 [ P.site "s1"; P.site "unseen" ]
  in
  (match ds with
   | [ d1; d2 ] ->
     (* peak 3 at 4 threads: reduced/1 (capacity 5) is the cheapest
        feasible config. *)
     Alcotest.(check int) "peak read from profile" 3 d1.Synth.Retime.d_peak;
     Alcotest.(check bool) "profiled" true d1.Synth.Retime.d_profiled;
     Alcotest.(check string) "cheapest feasible" "reduced/1"
       (P.cfg_to_string d1.Synth.Retime.d_cfg);
     Alcotest.(check int) "capacity" 5 d1.Synth.Retime.d_capacity;
     (* An unprofiled site keeps the largest legal config. *)
     Alcotest.(check bool) "unprofiled" false d2.Synth.Retime.d_profiled;
     Alcotest.(check string) "largest kept" "full/4"
       (P.cfg_to_string d2.Synth.Retime.d_cfg)
   | _ -> Alcotest.fail "expected two decisions");
  Alcotest.(check bool) "placement carries the decision" true
    (P.find placement ~name:"s1" ~default:full2 = red1)

let test_retime_decide_deep () =
  (* peak 9 at 4 threads: reduced/1 = 5 and full/1 = 8 are infeasible,
     reduced/2 = 10 is the cheapest cover; headroom pushes further. *)
  let profile = fake_profile ~cycles:100 ~peak:9 in
  let _, ds = Synth.Retime.decide ~profile ~threads:4 [ P.site "s1" ] in
  Alcotest.(check string) "two reduced stages" "reduced/2"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg);
  let _, ds =
    Synth.Retime.decide ~headroom:2 ~profile ~threads:4 [ P.site "s1" ]
  in
  (* need 11: reduced/2 = 10 no longer covers; reduced/3 = 15 is next
     by capacity. *)
  Alcotest.(check string) "headroom applied" "reduced/3"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg);
  (* Impossible demand falls back to the largest legal config. *)
  let profile = fake_profile ~cycles:100 ~peak:1_000 in
  let _, ds =
    Synth.Retime.decide ~profile ~threads:4 [ P.site ~max_stages:2 "s1" ]
  in
  Alcotest.(check string) "fallback to largest" "full/2"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg)

let test_retime_link_slots () =
  let profile = fake_profile ~cycles:100 ~peak:3 in
  Alcotest.(check (list (pair string int)))
    "per-link sizing"
    [ ("l_bp", 3); ("l_idle", 1); ("l_unknown", 2) ]
    (Synth.Retime.link_slots ~default:2 ~profile
       [ ("l_bp", "probe_bp"); ("l_idle", "probe_idle");
         ("l_unknown", "probe_missing") ])

(* ---- NoC link overrides ---- *)

let test_noc_link_overrides () =
  let topology = Noc.Star { leaves = 3 } in
  let plan = Noc.plan topology in
  let links = Noc.link_names plan in
  Alcotest.(check bool) "plan has links" true (links <> []);
  (* Unknown link names and non-positive slot counts are rejected at
     build time. *)
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Noc: unknown link \"nope\" in link_overrides")
    (fun () ->
      ignore
        (Noc.circuit ~link_overrides:[ ("nope", 2) ] ~payload_width:8 plan));
  Alcotest.check_raises "bad slot count"
    (Invalid_argument
       (Printf.sprintf "Noc: link %S needs >= 1 slot" (List.hd links)))
    (fun () ->
      ignore
        (Noc.circuit ~link_overrides:[ (List.hd links, 0) ] ~payload_width:8
           plan));
  (* A monitored driver with a deepened link still conserves traffic
     (its per-link capacity bound follows the override). *)
  let t =
    Noc.Driver.create ~monitor:true ~link_overrides:[ (List.hd links, 3) ]
      topology
  in
  let n = Noc.Driver.terminals t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Noc.Driver.inject t ~src ~dst ((src * 10) + dst)
    done
  done;
  let ejected = Noc.Driver.drain t in
  Noc.Driver.finish t;
  Alcotest.(check int) "all tokens delivered" (n * (n - 1))
    (List.length ejected);
  Alcotest.(check int) "no violations" 0 (Noc.Driver.violations t);
  match Noc.Driver.profile t with
  | None -> Alcotest.fail "monitored driver must expose a profile"
  | Some p ->
    Alcotest.(check bool) "per-link channels profiled" true
      (List.length (Profile.channel_names p) > 0)

let suite =
  ( "profile",
    [ Alcotest.test_case "histogram empty" `Quick test_hist_empty;
      Alcotest.test_case "histogram single sample" `Quick
        test_hist_single_sample;
      Alcotest.test_case "histogram merge disjoint octaves" `Quick
        test_hist_merge_disjoint_octaves;
      Alcotest.test_case "histogram huge values bound" `Quick
        test_hist_huge_values_bound;
      Alcotest.test_case "histogram bucket roundtrip" `Quick
        test_hist_bucket_roundtrip;
      Alcotest.test_case "channel statistics" `Quick test_profile_channels;
      Alcotest.test_case "occupancy upgrade on a watched channel" `Quick
        test_profile_occupancy_upgrade;
      Alcotest.test_case "json roundtrip" `Quick test_profile_json_roundtrip;
      Alcotest.test_case "gauge merge" `Quick test_profile_gauges_merge;
      Alcotest.test_case "placement lookup" `Quick test_placement_lookup;
      Alcotest.test_case "retime decide" `Quick test_retime_decide;
      Alcotest.test_case "retime deep pipelines" `Quick test_retime_decide_deep;
      Alcotest.test_case "retime link slots" `Quick test_retime_link_slots;
      Alcotest.test_case "noc link overrides" `Quick test_noc_link_overrides ] )
