(* Tests of the CEX provenance engine: backward trace slicing,
   replay-checked witness minimization, fingerprint clustering and the
   campaign driver's JSON/HTML artifacts. *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
module Json = Obs.Json
open Signal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The classic hidden-state channel: [stash] captures input data on
   demand and is never flushed; the output reveals whether a later query
   matches the stashed value. *)
let leaky_dut () =
  let din = input "din" 4 in
  let capture = input "capture" 1 in
  let query = input "query" 4 in
  let stash = reg "stash" 4 in
  reg_set_next stash (mux2 capture din stash);
  Circuit.create ~name:"leaky"
    ~outputs:[ ("hit", query ==: stash) ]
    ()

(* Two independent channels plus a benign free-running counter. *)
let two_leak_dut () =
  let din = input "din" 4 in
  let cap1 = input "cap1" 1 in
  let cap2 = input "cap2" 1 in
  let query = input "query" 4 in
  let stash1 = reg "stash1" 4 in
  let stash2 = reg "stash2" 4 in
  let benign = reg "benign" 4 in
  reg_set_next stash1 (mux2 cap1 din stash1);
  reg_set_next stash2 (mux2 cap2 din stash2);
  reg_set_next benign (benign +: one 4);
  Circuit.create ~name:"twoleak"
    ~outputs:[ ("hit1", query ==: stash1); ("hit2", query ==: stash2) ]
    ()

let find_cex ?(max_depth = 12) dut =
  let ft = Autocc.Ft.generate ~threshold:2 dut in
  match Autocc.Ft.check ~max_depth ft with
  | Bmc.Cex (cex, _) -> (ft, cex)
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected a covert-channel CEX"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_slice () =
  let ft, cex = find_cex (leaky_dut ()) in
  let sl = Explain.slice ft cex in
  Alcotest.(check string) "assert" "as__hit_eq" sl.Explain.sl_assert;
  Alcotest.(check (option string)) "output" (Some "hit") sl.Explain.sl_output;
  Alcotest.(check (option string)) "culprit" (Some "stash") sl.Explain.sl_culprit;
  Alcotest.(check bool) "spy start found" true (sl.Explain.sl_spy_start <> None);
  Alcotest.(check int) "depth" cex.Bmc.cex_depth sl.Explain.sl_depth;
  Alcotest.(check int) "one width per cycle" (cex.Bmc.cex_depth + 1)
    (Array.length sl.Explain.sl_widths);
  (* The chain runs origin-first: cycles never decrease, the last hop is
     the observable output, and the stash register is on the path. *)
  let chain = sl.Explain.sl_chain in
  Alcotest.(check bool) "chain nonempty" true (chain <> []);
  let last = List.nth chain (List.length chain - 1) in
  Alcotest.(check bool) "last hop is the output" true
    (last.Explain.link_kind = Explain.Output && last.Explain.link_label = "hit");
  Alcotest.(check int) "output diverges at cex depth" cex.Bmc.cex_depth
    last.Explain.link_cycle;
  Alcotest.(check bool) "stash register on the path" true
    (List.exists
       (fun l -> l.Explain.link_kind = Explain.Reg && l.Explain.link_label = "stash")
       chain);
  ignore
    (List.fold_left
       (fun prev l ->
         if l.Explain.link_cycle < prev then
           Alcotest.fail "chain cycles must be non-decreasing";
         l.Explain.link_cycle)
       0 chain);
  (* Every hop genuinely diverges. *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "hop %s diverges" l.Explain.link_label)
        false
        (Bitvec.equal l.Explain.link_a l.Explain.link_b))
    chain;
  (* The waveform strip covers every chain hop across all cycles. *)
  List.iter
    (fun (_, _, va, vb) ->
      Alcotest.(check int) "strip alpha row length" (cex.Bmc.cex_depth + 1)
        (Array.length va);
      Alcotest.(check int) "strip beta row length" (cex.Bmc.cex_depth + 1)
        (Array.length vb))
    sl.Explain.sl_trace;
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "strip has a row for %s" l.Explain.link_label)
        true
        (List.exists (fun (n, _, _, _) -> n = l.Explain.link_label) sl.Explain.sl_trace))
    chain

let test_minimize () =
  let ft, cex = find_cex (leaky_dut ()) in
  let mn = Explain.minimize ft cex in
  let m = mn.Explain.mn_cex in
  Alcotest.(check bool) "depth never grows" true (m.Bmc.cex_depth <= cex.Bmc.cex_depth);
  Alcotest.(check int) "depth delta consistent"
    (cex.Bmc.cex_depth - m.Bmc.cex_depth)
    mn.Explain.mn_depth_delta;
  Alcotest.(check bool) "performed replay trials" true (mn.Explain.mn_iterations > 0);
  Alcotest.(check bool) "still fails the original assertion" true
    (List.mem "as__hit_eq" m.Bmc.cex_failed);
  (* Replay-verify the minimized witness against the original property,
     restricted to the failing assertion (the witness circuit only
     instruments that one). *)
  let prop = ft.Autocc.Ft.property in
  let prop =
    {
      prop with
      Bmc.asserts =
        List.filter (fun (n, _) -> List.mem n m.Bmc.cex_failed) prop.Bmc.asserts;
    }
  in
  let circuit = Bmc.instrument ft.Autocc.Ft.wrapper prop in
  let failed = Bmc.validate circuit prop m.Bmc.cex_inputs m.Bmc.cex_depth in
  Alcotest.(check bool) "minimized witness replays to the same failure" true
    (List.mem "as__hit_eq" failed);
  (* Bit accounting: zeroed_bits is exactly the set-bit count the
     minimizer removed from the kept cycles. *)
  let popcount inputs =
    Array.fold_left
      (fun acc assignments ->
        List.fold_left
          (fun acc (_, v) ->
            let n = ref 0 in
            for i = 0 to Bitvec.width v - 1 do
              if Bitvec.bit v i then incr n
            done;
            acc + !n)
          acc assignments)
      0 inputs
  in
  let kept = Array.sub cex.Bmc.cex_inputs 0 (m.Bmc.cex_depth + 1) in
  Alcotest.(check int) "zeroed bit accounting"
    (popcount kept - popcount m.Bmc.cex_inputs)
    mn.Explain.mn_zeroed_bits

(* Golden minimisation: the campaign's maple_m3 and divider entries,
   swept by [check_each] at -O1 (no SAT sweep, so the CEX pool is
   deterministic). Each CEX is pinned by its assertion, depth, the
   failing-assertion list [Bmc.validate] returns on the raw and the
   minimised witness, [mn_zeroed_bits], [mn_iterations] and the
   minimised inputs' nonzero values in hex. Any change to which replay
   trials run, or to what a trial decides, moves one of these. *)
let golden_lines ft ~max_depth =
  let property = ft.Autocc.Ft.property in
  Bmc.check_each ~max_depth ~opt:Opt.O1 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
    property
  |> List.filter_map (function
       | name, Bmc.Cex (cex, _) ->
           let prop failed =
             {
               property with
               Bmc.asserts =
                 List.filter (fun (n, _) -> List.mem n failed) property.Bmc.asserts;
             }
           in
           let validate (c : Bmc.cex) =
             Bmc.validate c.Bmc.cex_circuit (prop c.Bmc.cex_failed) c.Bmc.cex_inputs
               c.Bmc.cex_depth
           in
           let mn = Explain.minimize ft cex in
           let m = mn.Explain.mn_cex in
           let inputs =
             Array.to_list m.Bmc.cex_inputs
             |> List.mapi (fun c assignments ->
                    List.filter_map
                      (fun (n, v) ->
                        if Bitvec.is_zero v then None
                        else Some (Printf.sprintf "%d:%s=%s" c n (Bitvec.to_hex_string v)))
                      assignments)
             |> List.concat
           in
           Some
             (Printf.sprintf "%s d=%d raw=[%s] min=[%s] d'=%d zeroed=%d iters=%d in=[%s]"
                name cex.Bmc.cex_depth
                (String.concat "," (validate cex))
                (String.concat "," (validate m))
                m.Bmc.cex_depth mn.Explain.mn_zeroed_bits mn.Explain.mn_iterations
                (String.concat " " inputs))
       | _, (Bmc.Bounded_proof _ | Bmc.Unknown _) -> None)

let golden_maple_m3 =
  [
    "as__noc_req_valid_eq d=6 raw=[as__noc_req_valid_eq] \
     min=[as__noc_req_valid_eq] d'=6 zeroed=42 iters=143 \
     in=[0:a_cfg_wen=1 0:a_cfg_addr=2 0:b_cfg_wen=1 0:b_cfg_addr=2 \
     1:a_cfg_wen=1 1:a_cfg_wdata=bc 3:a_noc_req_ready=1 3:a_cfg_wen=1 \
     3:a_cfg_addr=1 3:a_cfg_wdata=bc 3:b_noc_req_ready=1 3:b_cfg_wen=1 \
     3:b_cfg_addr=1 3:b_cfg_wdata=bc 4:a_req_valid=1 4:a_req_idx=a \
     4:a_noc_req_ready=1 4:a_cfg_wen=1 4:a_cfg_addr=1 4:a_cfg_wdata=bd \
     4:b_req_valid=1 4:b_req_idx=a 4:b_noc_req_ready=1 4:b_cfg_wen=1 \
     4:b_cfg_addr=1 4:b_cfg_wdata=bd 5:a_req_valid=1 5:a_req_idx=6 \
     5:a_noc_req_ready=1 5:a_cfg_wen=1 5:a_cfg_addr=2 5:b_req_valid=1 \
     5:b_req_idx=6 5:b_noc_req_ready=1 5:b_cfg_wen=1 5:b_cfg_addr=2 \
     6:a_noc_req_ready=1 6:a_cfg_wen=1 6:a_cfg_wdata=04 \
     6:b_noc_req_ready=1 6:b_cfg_wen=1 6:b_cfg_wdata=04]";
    "as__noc_req_addr_eq d=5 raw=[as__noc_req_addr_eq] \
     min=[as__noc_req_addr_eq] d'=5 zeroed=40 iters=124 \
     in=[0:a_cfg_wen=1 0:a_cfg_addr=2 0:b_cfg_wen=1 0:b_cfg_addr=2 \
     1:b_cfg_wen=1 1:b_cfg_wdata=40 3:a_noc_req_ready=1 3:a_cfg_wen=1 \
     3:a_cfg_addr=1 3:a_cfg_wdata=bc 3:b_noc_req_ready=1 3:b_cfg_wen=1 \
     3:b_cfg_addr=1 3:b_cfg_wdata=bc 4:a_req_valid=1 4:a_req_idx=a \
     4:a_noc_req_ready=1 4:a_cfg_wen=1 4:a_cfg_addr=1 4:a_cfg_wdata=bd \
     4:b_req_valid=1 4:b_req_idx=a 4:b_noc_req_ready=1 4:b_cfg_wen=1 \
     4:b_cfg_addr=1 4:b_cfg_wdata=bd 5:a_req_valid=1 5:a_req_idx=6 \
     5:a_noc_req_ready=1 5:a_cfg_wen=1 5:a_cfg_addr=2 5:b_req_valid=1 \
     5:b_req_idx=6 5:b_noc_req_ready=1 5:b_cfg_wen=1 5:b_cfg_addr=2]";
    "as__fault_eq d=5 raw=[as__fault_eq] min=[as__fault_eq] d'=5 \
     zeroed=45 iters=196 in=[0:a_cfg_wen=1 0:a_cfg_addr=2 0:b_cfg_wen=1 \
     0:b_cfg_addr=2 1:a_cfg_wen=1 1:a_cfg_wdata=c0 2:a_noc_resp_valid=1 \
     2:a_noc_resp_data=d7 2:a_cfg_wen=1 2:a_cfg_addr=1 2:a_cfg_wdata=bb \
     2:b_noc_resp_valid=1 2:b_noc_resp_data=d7 2:b_cfg_wen=1 \
     2:b_cfg_addr=1 2:b_cfg_wdata=bb 3:a_noc_req_ready=1 3:a_consume=1 \
     3:a_cfg_wen=1 3:a_cfg_addr=1 3:a_cfg_wdata=fe 3:b_noc_req_ready=1 \
     3:b_consume=1 3:b_cfg_wen=1 3:b_cfg_addr=1 3:b_cfg_wdata=fe \
     4:a_noc_resp_valid=1 4:a_noc_resp_data=c0 4:a_cfg_wen=1 \
     4:a_cfg_addr=1 4:a_cfg_wdata=bb 4:b_noc_resp_valid=1 \
     4:b_noc_resp_data=c0 4:b_cfg_wen=1 4:b_cfg_addr=1 4:b_cfg_wdata=bb \
     5:a_req_valid=1 5:a_req_idx=5 5:a_noc_req_ready=1 \
     5:a_noc_resp_valid=1 5:a_noc_resp_data=58 5:a_cfg_wen=1 \
     5:a_cfg_addr=1 5:a_cfg_wdata=ce 5:b_req_valid=1 5:b_req_idx=5 \
     5:b_noc_req_ready=1 5:b_noc_resp_valid=1 5:b_noc_resp_data=58 \
     5:b_cfg_wen=1 5:b_cfg_addr=1 5:b_cfg_wdata=ce]";
  ]

let golden_divider =
  [
    "as__busy_eq d=4 raw=[as__busy_eq] min=[as__busy_eq] d'=4 zeroed=7 \
     iters=51 in=[0:a_start=1 0:a_dividend=f 0:a_divisor=4 0:b_start=1 \
     0:b_dividend=c 0:b_divisor=6 1:a_start=1 1:a_dividend=4 \
     1:a_divisor=7 1:b_start=1 1:b_dividend=4 1:b_divisor=7 \
     1:flush_done=1 3:a_start=1 3:b_start=1]";
    "as__done_valid_eq d=4 raw=[as__done_valid_eq] \
     min=[as__done_valid_eq] d'=4 zeroed=7 iters=47 in=[0:a_start=1 \
     0:a_dividend=c 0:a_divisor=6 0:b_start=1 0:b_dividend=f \
     0:b_divisor=4 1:a_start=1 1:a_dividend=4 1:a_divisor=7 1:b_start=1 \
     1:b_dividend=4 1:b_divisor=7 1:flush_done=1]";
    "as__quotient_eq d=4 raw=[as__quotient_eq] min=[as__quotient_eq] \
     d'=4 zeroed=4 iters=44 in=[0:a_start=1 0:a_dividend=8 \
     0:a_divisor=4 0:b_start=1 0:b_dividend=f 0:b_divisor=4 1:a_start=1 \
     1:a_dividend=6 1:a_divisor=8 1:b_start=1 1:b_dividend=6 \
     1:b_divisor=8 1:flush_done=1 2:a_start=1 2:b_start=1]";
    "as__remainder_eq d=4 raw=[as__remainder_eq] min=[as__remainder_eq] \
     d'=4 zeroed=4 iters=42 in=[0:a_start=1 0:a_dividend=5 \
     0:a_divisor=2 0:b_start=1 0:b_dividend=8 0:b_divisor=2 1:a_start=1 \
     1:a_dividend=3 1:a_divisor=8 1:b_start=1 1:b_dividend=3 \
     1:b_divisor=8 1:flush_done=1 2:a_start=1 2:b_start=1]";
  ]

(* Simulator cycles stepped by both sweeps, their CEX extraction and
   every minimisation trial. *)
let golden_sim_steps = 3743

let test_minimize_golden () =
  let module M = Duts.Maple in
  let m3 = M.create ~config:{ M.fix_m2 = true; fix_m3 = false } () in
  let maple =
    Autocc.Ft.generate ~threshold:2 ~flush_done:(M.flush_done ~require_outbuf_empty:true ()) m3
  in
  let divider = Autocc.Ft.generate ~threshold:2 (Duts.Divider.create ()) in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  Alcotest.(check (list string)) "maple_m3" golden_maple_m3
    (golden_lines maple ~max_depth:10);
  Alcotest.(check (list string)) "divider" golden_divider
    (golden_lines divider ~max_depth:12);
  Alcotest.(check (option int)) "sim.steps" (Some golden_sim_steps)
    (match Obs.Metrics.find "sim.steps" with
    | Some (Obs.Metrics.Counter n) -> Some n
    | _ -> None)

let test_cluster () =
  let dut = two_leak_dut () in
  let ft = Autocc.Ft.generate ~threshold:2 dut in
  let cexs =
    Bmc.check_each ~max_depth:12 ft.Autocc.Ft.wrapper ft.Autocc.Ft.property
    |> List.filter_map (function
         | _, Bmc.Cex (cex, _) -> Some cex
         | _, Bmc.Bounded_proof _ -> None
         | _, Bmc.Unknown _ -> None)
  in
  Alcotest.(check int) "one raw CEX per leaking output" 2 (List.length cexs);
  let channels = Explain.cluster ft cexs in
  Alcotest.(check int) "two distinct channels" 2 (List.length channels);
  let culprits =
    List.filter_map (fun ch -> ch.Explain.ch_culprit) channels |> List.sort compare
  in
  Alcotest.(check (list string)) "culprits" [ "stash1"; "stash2" ] culprits;
  List.iter
    (fun ch ->
      Alcotest.(check int) "one raw CEX per channel" 1 ch.Explain.ch_raw_cexs;
      Alcotest.(check bool) "fingerprint names the culprit" true
        (match ch.Explain.ch_culprit with
        | Some c -> contains ch.Explain.ch_fingerprint c
        | None -> false))
    channels;
  let fps = List.map (fun ch -> ch.Explain.ch_fingerprint) channels in
  Alcotest.(check bool) "fingerprints distinct" true
    (List.length (List.sort_uniq compare fps) = 2)

let test_cluster_dedupes () =
  (* Two CEXs for the SAME channel — e.g. the shallowest one and itself —
     must collapse into one cluster with raw_cexs = 2. *)
  let ft, cex = find_cex (leaky_dut ()) in
  let channels = Explain.cluster ft [ cex; cex ] in
  Alcotest.(check int) "one channel" 1 (List.length channels);
  let ch = List.hd channels in
  Alcotest.(check int) "two raw CEXs merged" 2 ch.Explain.ch_raw_cexs;
  Alcotest.(check (option string)) "culprit" (Some "stash") ch.Explain.ch_culprit

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_campaign () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocc_test_campaign_%d" (Unix.getpid ()))
  in
  rm_rf out_dir;
  let entries =
    [
      {
        Explain.Campaign.e_label = "leaky";
        e_dut = "leaky";
        e_ft = (fun () -> Autocc.Ft.generate ~threshold:2 (leaky_dut ()));
        e_max_depth = 8;
      };
    ]
  in
  let result = Explain.Campaign.run ~opt:Opt.O2 ~out_dir entries in
  let r = List.hd result.Explain.Campaign.c_results in
  Alcotest.(check int) "one channel" 1 (List.length r.Explain.Campaign.r_channels);
  Alcotest.(check bool) "raw pool at least as big" true
    (r.Explain.Campaign.r_raw_cexs >= 1);
  (* Artifacts: campaign.json first, then the per-channel JSON, then the
     HTML report; all parse / look well-formed. *)
  (match result.Explain.Campaign.c_artifacts with
  | index :: _ ->
      Alcotest.(check string) "index first" "campaign.json" (Filename.basename index)
  | [] -> Alcotest.fail "no artifacts written");
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let parse path =
    match Json.parse (read path) with
    | Ok j -> j
    | Error e -> Alcotest.fail (Printf.sprintf "%s does not parse: %s" path e)
  in
  let schema j =
    match Json.member "schema" j with Some (Json.Str s) -> s | _ -> "?"
  in
  let index = parse (Filename.concat out_dir "campaign.json") in
  Alcotest.(check string) "index schema" "autocc.campaign/2" (schema index);
  let channel_file =
    match Json.member "entries" index with
    | Some (Json.List [ entry ]) -> (
        match Json.member "channels" entry with
        | Some (Json.List [ ch ]) -> (
            match Json.member "artifact" ch with
            | Some (Json.Str a) -> a
            | _ -> Alcotest.fail "channel lacks an artifact reference")
        | _ -> Alcotest.fail "index entry lacks its channel")
    | _ -> Alcotest.fail "index lacks its entry"
  in
  let ch = parse (Filename.concat out_dir channel_file) in
  Alcotest.(check string) "channel schema" "autocc.channel/1" (schema ch);
  (match Json.member "provenance" ch with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "channel artifact lacks a provenance chain");
  let html = read (Filename.concat out_dir "report.html") in
  Alcotest.(check bool) "html doctype" true
    (String.length html > 15 && String.sub html 0 15 = "<!doctype html>");
  Alcotest.(check bool) "html closed" true (contains html "</html>");
  Alcotest.(check bool) "html names the channel" true (contains html "stash");
  rm_rf out_dir

let () =
  Alcotest.run "explain"
    [
      ( "slice",
        [ Alcotest.test_case "leaky provenance chain" `Quick test_slice ] );
      ( "minimize",
        [
          Alcotest.test_case "replay-checked reduction" `Quick test_minimize;
          Alcotest.test_case "golden campaign witnesses" `Quick test_minimize_golden;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "two channels separated" `Quick test_cluster;
          Alcotest.test_case "same channel deduplicated" `Quick test_cluster_dedupes;
        ] );
      ( "campaign",
        [ Alcotest.test_case "artifacts" `Quick test_campaign ] );
    ]
