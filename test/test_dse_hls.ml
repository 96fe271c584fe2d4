open Overgen_adg
open Overgen_workload
open Overgen_scheduler
module Dse = Overgen_dse.Dse
module Mutate = Overgen_dse.Mutate
module Hls = Overgen_hls.Hls
module Predict = Overgen_mlp.Predict
module Res = Overgen_fpga.Res

let model () = Models.trained 11

let small_cfg seed = { Dse.default_config with iterations = 60; seed }

(* ---------------- mutations ---------------- *)

let fir_usage () =
  let sys = Builder.general_overlay () in
  let c = Overgen_mdfg.Compile.compile (Kernels.find "fir") in
  match Spatial.schedule_app sys c with
  | Ok s -> (sys, s, Mutate.usage_of s)
  | Error e -> Alcotest.failf "fir: %s" e

let test_usage_marks_used_nodes () =
  let _, scheds, usage = fir_usage () in
  (* every placed PE must be detected as used; exercised via prune *)
  let sys, _, _ = fir_usage () in
  let pruned, _ = Mutate.prune_unused sys.adg usage in
  (* pruning must keep the schedules valid *)
  let sys' = Sys_adg.with_adg sys pruned in
  List.iter
    (fun s ->
      match Schedule.validate s sys' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "prune broke schedule: %s" e)
    scheds

let test_prune_removes_unused_caps () =
  let sys, _, usage = fir_usage () in
  let before =
    List.fold_left
      (fun acc (_, (pe : Comp.pe)) -> acc + Op.Cap.cardinal pe.caps)
      0 (Adg.pes sys.adg)
  in
  let pruned, n = Mutate.prune_unused sys.adg usage in
  let after =
    List.fold_left
      (fun acc (_, (pe : Comp.pe)) -> acc + Op.Cap.cardinal pe.caps)
      0 (Adg.pes pruned)
  in
  Alcotest.(check bool) "prunes happened" true (n > 0);
  Alcotest.(check bool) "capability count shrank" true (after < before)

let test_propose_produces_change () =
  let sys, _, usage = fir_usage () in
  let rng = Overgen_util.Rng.create 42 in
  let pool = Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.F64 ] in
  let changed = ref 0 in
  for _ = 1 to 50 do
    let adg', desc = Mutate.propose rng ~preserve:true ~caps_pool:pool sys.adg usage in
    if Adg.node_count adg' <> Adg.node_count sys.adg
       || Adg.edge_count adg' <> Adg.edge_count sys.adg
       || String.length desc > 0 && not (String.length desc >= 4 && String.sub desc 0 4 = "noop")
    then incr changed
  done;
  Alcotest.(check bool) "most proposals change the graph" true (!changed > 30)

let test_preserving_remove_switch_collapses () =
  let sys, scheds, usage = fir_usage () in
  (* find a switch on a route and remove it with preservation: repair must
     succeed via the collapsed edges *)
  let rng = Overgen_util.Rng.create 1 in
  let pool = Op.Cap.of_ops [ Op.Add ] [ Dtype.F64 ] in
  let rec attempt n =
    if n = 0 then ()
    else
      let adg', desc = Mutate.propose rng ~preserve:true ~caps_pool:pool sys.adg usage in
      if String.length desc >= 13 && String.sub desc 0 13 = "remove switch" then begin
        match Spatial.repair (Sys_adg.with_adg sys adg') scheds with
        | Ok _ -> ()
        | Error _ -> () (* rerouting may still fail; the DSE abandons then *)
      end
      else attempt (n - 1)
  in
  attempt 200

(* Nodes added after a usage was taken have ids past every id its
   schedules use: they must read as unused, never raise or alias a used
   node or link. *)
let test_usage_past_its_range () =
  let sys, scheds, usage = fir_usage () in
  let used = Hashtbl.create 64 and used_links = Hashtbl.create 128 in
  List.iter
    (fun (s : Schedule.t) ->
      Schedule.Imap.iter (fun _ id -> Hashtbl.replace used id ()) s.inst_pe;
      Schedule.Imap.iter (fun _ id -> Hashtbl.replace used id ()) s.port_map;
      List.iter (fun (_, e) -> Hashtbl.replace used e ()) s.array_engine;
      List.iter
        (fun (_, e) -> Hashtbl.replace used e ())
        (s.rec_streams @ s.reg_streams);
      List.iter
        (fun (_, (r : Schedule.route)) ->
          let rec walk = function
            | a :: (b :: _ as rest) ->
              Hashtbl.replace used a ();
              Hashtbl.replace used_links (a, b) ();
              walk rest
            | [ b ] -> Hashtbl.replace used b ()
            | [] -> ()
          in
          walk r.hops)
        s.routes)
    scheds;
  let top = Hashtbl.fold (fun id () acc -> max acc id) used 0 in
  let pool = Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.F64; Dtype.I64 ] in
  let sws = Array.of_list (Adg.switches sys.adg) in
  let add adg comp =
    let adg, id = Adg.add adg comp in
    Alcotest.(check bool) "new id past the used range" true (id > top);
    (adg, id)
  in
  (* new PEs (enough that their ids pass twice the used range, so a key
     src * n + dst of an unchecked id would alias a used link), each fed
     and drained by switches; a stated in-port; an indirect spad *)
  let adg = ref sys.adg and fresh = ref [] in
  for i = 0 to top + 8 do
    let a, pe = add !adg (Comp.Pe (Comp.default_pe pool)) in
    let sw = sws.(i mod Array.length sws) in
    adg := Adg.add_edge (Adg.add_edge a sw pe) pe sws.((i + 1) mod Array.length sws);
    fresh := pe :: !fresh
  done;
  let a, port =
    add !adg (Comp.In_port { (Comp.default_port ~width_bytes:16) with stated = true })
  in
  adg := Adg.add_edge a port sws.(0);
  let a, spad =
    add !adg
      (Comp.Engine { (Comp.default_engine Comp.Spad) with indirect = true; max_dims = 3 })
  in
  adg := Adg.add_edge a spad port;
  let grown = !adg and fresh = port :: spad :: !fresh in
  (* pruning strips only what schedules leave unused, and reads the new
     nodes as unused: it leaves them as they were *)
  let pruned, _ = Mutate.prune_unused grown usage in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d untouched by prune" id)
        true
        (Adg.comp pruned id = Adg.comp grown id))
    fresh;
  (* preserving proposals never remove a used node or link, and remove
     the new ones like any unused node *)
  let rng = Overgen_util.Rng.create 7 in
  let fresh_removed = ref 0 in
  for _ = 1 to 1000 do
    let _, desc = Mutate.propose rng ~preserve:true ~caps_pool:pool grown usage in
    match String.split_on_char ' ' desc with
    | [ "remove"; ("pe" | "port" | "engine"); id ] ->
      let id = int_of_string id in
      Alcotest.(check bool) (desc ^ ": unused") false (Hashtbl.mem used id);
      if List.mem id fresh then incr fresh_removed
    | [ "remove"; "link"; link ] -> (
      match String.split_on_char '-' link with
      | [ a; b ] ->
        let b = String.sub b 1 (String.length b - 1) in
        Alcotest.(check bool)
          (desc ^ ": unused") false
          (Hashtbl.mem used_links (int_of_string a, int_of_string b))
      | _ -> Alcotest.failf "unexpected link move %s" desc)
    | _ -> ()
  done;
  Alcotest.(check bool) "new nodes removed as unused" true (!fresh_removed > 0)

(* ---------------- DSE ---------------- *)

let test_dse_improves_over_seed () =
  let model = model () in
  let r = Dse.explore ~config:(small_cfg 5) ~model (Dse.compile_apps ~tuned:false [ Kernels.find "vecmax" ]) in
  (match r.trace with
  | first :: _ ->
    Alcotest.(check bool) "objective does not regress" true
      (r.best.objective >= first.est_ipc *. 0.99)
  | [] -> Alcotest.fail "empty trace");
  Alcotest.(check bool) "stats consistent" true
    (r.stats.accepted <= 60 && r.stats.invalid <= 60)

let test_dse_fits_device () =
  let model = model () in
  let r = Dse.explore ~config:(small_cfg 6) ~model (Dse.compile_apps ~tuned:false [ Kernels.find "accumulate" ]) in
  let usable = Overgen_fpga.Device.(usable default) in
  Alcotest.(check bool) "predicted resources fit" true
    (Res.fits r.best.predicted ~within:usable)

let test_dse_schedules_valid () =
  let model = model () in
  let r = Dse.explore ~config:(small_cfg 7) ~model (Dse.compile_apps ~tuned:false [ Kernels.find "acc-sqr" ]) in
  List.iter
    (List.iter (fun s ->
         match Schedule.validate s r.best.sys with
         | Ok () -> ()
         | Error e -> Alcotest.failf "best design schedule invalid: %s" e))
    r.best.per_app

let test_dse_deterministic () =
  let model = model () in
  let apps = Dse.compile_apps ~tuned:false [ Kernels.find "convert-bit" ] in
  let a = Dse.explore ~config:(small_cfg 8) ~model apps in
  let b = Dse.explore ~config:(small_cfg 8) ~model apps in
  Alcotest.(check (float 1e-9)) "same objective" a.best.objective b.best.objective

let test_dse_trace_monotone_time () =
  let model = model () in
  let r = Dse.explore ~config:(small_cfg 9) ~model (Dse.compile_apps ~tuned:false [ Kernels.find "vecmax" ]) in
  let rec mono = function
    | (a : Dse.trace_point) :: (b :: _ as rest) ->
      a.modeled_hours <= b.modeled_hours && mono rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "modeled time increases" true (mono r.trace)

let test_evaluate_fixed_design () =
  let model = model () in
  let sys = Builder.general_overlay () in
  match Dse.evaluate ~model sys (Dse.compile_apps ~tuned:false (Kernels.of_suite Suite.Vision)) with
  | Ok d -> Alcotest.(check bool) "objective positive" true (d.objective > 0.0)
  | Error e -> Alcotest.failf "general should host vision: %s" e

(* ---------------- HLS baseline ---------------- *)

let test_hls_ii_matches_table4 () =
  let ii name tuned = (Hls.evaluate ~tuned (Kernels.find name) { unroll = 1; partition = 1 }).ii in
  Alcotest.(check int) "cholesky untuned" 10 (ii "cholesky" false);
  Alcotest.(check int) "cholesky tuned" 5 (ii "cholesky" true);
  Alcotest.(check int) "channel-ext untuned" 8 (ii "channel-ext" false);
  Alcotest.(check int) "channel-ext tuned" 1 (ii "channel-ext" true)

let test_hls_unroll_helps_clean_kernels () =
  let k = Kernels.find "mm" in
  let slow = Hls.runtime_ms (Hls.evaluate ~tuned:false k { unroll = 1; partition = 1 }) in
  let fast = Hls.runtime_ms (Hls.evaluate ~tuned:false k { unroll = 8; partition = 8 }) in
  Alcotest.(check bool) "8x unroll faster" true (fast < slow)

let test_hls_partition_relieves_ports () =
  let k = Kernels.find "stencil-2d" in
  let starved = Hls.evaluate ~tuned:false k { unroll = 8; partition = 1 } in
  let fed = Hls.evaluate ~tuned:false k { unroll = 8; partition = 16 } in
  Alcotest.(check bool) "partition lowers ii" true (fed.ii < starved.ii)

let test_autodse_beats_default () =
  List.iter
    (fun name ->
      let k = Kernels.find name in
      let d0 = Hls.evaluate ~tuned:false k { unroll = 1; partition = 1 } in
      let e = Hls.autodse ~tuned:false k in
      Alcotest.(check bool)
        (name ^ " explorer no worse than default") true
        (Hls.runtime_ms e.best <= Hls.runtime_ms d0 +. 1e-9);
      Alcotest.(check bool) "positive dse time" true (e.dse_hours > 0.0))
    [ "mm"; "fir"; "blur"; "accumulate" ]

let test_autodse_database_gemm () =
  let e = Hls.autodse ~tuned:false (Kernels.find "gemm") in
  Alcotest.(check int) "database hit: one candidate" 1 e.candidates

let test_tuning_never_slower () =
  List.iter
    (fun (k : Ir.kernel) ->
      let u = Hls.runtime_ms (Hls.autodse ~tuned:false k).best in
      let t = Hls.runtime_ms (Hls.autodse ~tuned:true k).best in
      Alcotest.(check bool) (k.name ^ " tuned <= untuned") true (t <= u *. 1.05))
    Kernels.all

let test_more_dram_channels_help_hls () =
  let k = Kernels.find "accumulate" in
  let one = Hls.runtime_ms (Hls.autodse ~dram_channels:1 ~tuned:false k).best in
  let four = Hls.runtime_ms (Hls.autodse ~dram_channels:4 ~tuned:false k).best in
  Alcotest.(check bool) "4 channels <= 1" true (four <= one)

let prop_hls_resources_grow_with_unroll =
  QCheck.Test.make ~name:"hls resources monotone in unroll" ~count:20
    QCheck.(int_range 0 5)
    (fun log_u ->
      let u = 1 lsl log_u in
      let k = Kernels.find "bgr2grey" in
      let a = Hls.evaluate ~tuned:false k { unroll = u; partition = 1 } in
      let b = Hls.evaluate ~tuned:false k { unroll = 2 * u; partition = 1 } in
      b.res.Res.lut >= a.res.Res.lut)

(* Preserving proposals never take stream-state away from a port that a
   stationary stream uses, nor indirection away from an engine that an
   indirect stream uses. *)
let test_preserving_keeps_used_features () =
  let sys = Builder.general_overlay () in
  let pool = Op.Cap.of_ops [ Op.Add ] [ Dtype.F64 ] in
  List.iter
    (fun name ->
      let scheds =
        match Spatial.schedule_app sys (Overgen_mdfg.Compile.compile (Kernels.find name)) with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let usage = Mutate.usage_of scheds in
      let stated = ref [] and indirect = ref [] in
      List.iter
        (fun (s : Schedule.t) ->
          List.iter
            (fun (st : Overgen_mdfg.Stream.t) ->
              (match st.port with
              | Some p when st.reuse.stationary > 1.0 ->
                stated := Schedule.Imap.find p s.port_map :: !stated
              | _ -> ());
              match (st.access, Schedule.engine_of_stream s st) with
              | Overgen_mdfg.Stream.Indirect _, Some e -> indirect := e :: !indirect
              | _ -> ())
            s.variant.streams)
        scheds;
      Alcotest.(check bool) (name ^ " uses a stated port or indirect engine") true
        (!stated <> [] || !indirect <> []);
      let rng = Overgen_util.Rng.create 3 in
      for _ = 1 to 3000 do
        let adg', desc = Mutate.propose rng ~preserve:true ~caps_pool:pool sys.adg usage in
        List.iter
          (fun hw ->
            match Adg.comp adg' hw with
            | Some (Comp.In_port p | Comp.Out_port p) when not p.stated ->
              Alcotest.failf "%s: %s cleared stream-state on port %d" name desc hw
            | _ -> ())
          !stated;
        List.iter
          (fun e ->
            match Adg.comp adg' e with
            | Some (Comp.Engine en) when not en.indirect ->
              Alcotest.failf "%s: %s cleared indirection on engine %d" name desc e
            | _ -> ())
          !indirect
      done)
    [ "fir"; "crs" ]

(* The Random policy (the paper's Figure 16 baseline) proposes arbitrary
   mutations and reschedules them: some moves leave an application
   unschedulable and count as invalid, and the run still ends on a design
   whose schedules validate. *)
let test_random_policy_explores () =
  let r =
    Dse.explore_kernels
      ~config:{ (small_cfg 3) with mutation_policy = Dse.Random }
      ~model:(model ())
      [ Kernels.find "stencil-2d"; Kernels.find "fir" ]
  in
  Alcotest.(check bool) "some moves invalid" true (r.stats.invalid > 0);
  List.iter
    (List.iter (fun s ->
         match Schedule.validate s r.best.sys with
         | Ok () -> ()
         | Error e -> Alcotest.failf "best design schedule invalid: %s" e))
    r.best.per_app

(* A move with nothing to act on returns the graph it was given.  On the
   empty ADG every move but adding an engine finds nothing (no PEs,
   switches, ports, engines or links); on a lone one-capability PE with an
   empty capability pool, growing or dropping a capability finds nothing
   too.  Moves are drawn through [propose], with both policies. *)
let test_noop_moves_leave_graph () =
  let usage = Mutate.usage_of [] in
  let draw label adg caps_pool ~changes =
    let noops = ref 0 in
    for i = 0 to 399 do
      let rng = Overgen_util.Rng.create (1000 + i) in
      let adg', desc =
        Mutate.propose rng ~preserve:(i mod 2 = 0) ~caps_pool adg usage
      in
      if String.starts_with ~prefix:"noop" desc || desc = "prune 0 capabilities"
      then begin
        incr noops;
        if adg' != adg then Alcotest.failf "%s: %S changed the graph" label desc
      end
      else if not (changes desc) then Alcotest.failf "%s: unexpected move %S" label desc
    done;
    Alcotest.(check bool) (label ^ ": noop moves drawn") true (!noops > 0)
  in
  draw "empty" Adg.empty (Op.Cap.of_ops [ Op.Add ] [ Dtype.I32 ]) ~changes:(fun d ->
      match String.split_on_char ' ' d with
      | [ "add"; _; "engine"; _ ] -> true
      | _ -> false);
  let lone, _ =
    Adg.add Adg.empty (Comp.Pe (Comp.default_pe (Op.Cap.of_ops [ Op.Add ] [ Dtype.I32 ])))
  in
  draw "lone pe" lone Op.Cap.empty ~changes:(fun _ -> true)

let tests =
  [
    Alcotest.test_case "usage + prune keep schedules" `Quick test_usage_marks_used_nodes;
    Alcotest.test_case "prune removes caps" `Quick test_prune_removes_unused_caps;
    Alcotest.test_case "proposals mutate" `Quick test_propose_produces_change;
    Alcotest.test_case "collapse + repair" `Quick test_preserving_remove_switch_collapses;
    Alcotest.test_case "usage past its range" `Quick test_usage_past_its_range;
    Alcotest.test_case "dse improves" `Slow test_dse_improves_over_seed;
    Alcotest.test_case "dse fits device" `Slow test_dse_fits_device;
    Alcotest.test_case "dse schedules valid" `Slow test_dse_schedules_valid;
    Alcotest.test_case "dse deterministic" `Slow test_dse_deterministic;
    Alcotest.test_case "dse time monotone" `Slow test_dse_trace_monotone_time;
    Alcotest.test_case "evaluate fixed design" `Slow test_evaluate_fixed_design;
    Alcotest.test_case "hls II table" `Quick test_hls_ii_matches_table4;
    Alcotest.test_case "hls unroll helps" `Quick test_hls_unroll_helps_clean_kernels;
    Alcotest.test_case "hls partition" `Quick test_hls_partition_relieves_ports;
    Alcotest.test_case "autodse explores" `Quick test_autodse_beats_default;
    Alcotest.test_case "autodse database" `Quick test_autodse_database_gemm;
    Alcotest.test_case "tuning never slower" `Quick test_tuning_never_slower;
    Alcotest.test_case "dram channels (hls)" `Quick test_more_dram_channels_help_hls;
    QCheck_alcotest.to_alcotest prop_hls_resources_grow_with_unroll;
    Alcotest.test_case "preserving keeps used features" `Quick
      test_preserving_keeps_used_features;
    Alcotest.test_case "random policy explores" `Slow test_random_policy_explores;
    Alcotest.test_case "noop moves leave the graph" `Quick test_noop_moves_leave_graph;
  ]
