open Overgen_adg

let mk_pe () = Comp.Pe (Comp.default_pe (Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.I64 ]))
let mk_sw () = Comp.Switch { width_bits = 64 }
let mk_ip () = Comp.In_port (Comp.default_port ~width_bytes:8)
let mk_op () = Comp.Out_port (Comp.default_port ~width_bytes:8)
let mk_dma () = Comp.Engine (Comp.default_engine Comp.Dma)

let test_digraph_basic () =
  let g = Digraph.empty in
  let g = Digraph.add_node g 0 "a" in
  let g = Digraph.add_node g 1 "b" in
  let g = Digraph.add_edge g 0 1 in
  Alcotest.(check (list int)) "succ" [ 1 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "pred" [ 0 ] (Digraph.preds g 1);
  Alcotest.(check bool) "mem_edge" true (Digraph.mem_edge g 0 1);
  let g = Digraph.remove_edge g 0 1 in
  Alcotest.(check bool) "removed" false (Digraph.mem_edge g 0 1)

let test_digraph_remove_node_cleans_edges () =
  let g = Digraph.empty in
  let g = List.fold_left (fun g i -> Digraph.add_node g i i) g [ 0; 1; 2 ] in
  let g = Digraph.add_edge (Digraph.add_edge g 0 1) 1 2 in
  let g = Digraph.remove_node g 1 in
  Alcotest.(check (list int)) "no succ" [] (Digraph.succs g 0);
  Alcotest.(check (list int)) "no pred" [] (Digraph.preds g 2);
  Alcotest.(check int) "two nodes left" 2 (Digraph.node_count g);
  Alcotest.(check (pair int int)) "a removed node has no degree" (0, 0)
    (Digraph.in_degree g 1, Digraph.out_degree g 1)

let test_digraph_rejects_self_loop () =
  let g = Digraph.add_node Digraph.empty 0 "x" in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self loop")
    (fun () -> ignore (Digraph.add_edge g 0 0))

let test_adg_edge_legality () =
  let adg = Adg.empty in
  let adg, pe = Adg.add adg (mk_pe ()) in
  let adg, dma = Adg.add adg (mk_dma ()) in
  Alcotest.check_raises "engine->pe illegal"
    (Invalid_argument "Adg.add_edge: illegal dma->pe") (fun () ->
      ignore (Adg.add_edge adg dma pe))

let test_mesh_validates () =
  let caps = Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.I64 ] in
  let adg =
    Builder.mesh ~rows:2 ~cols:3 ~caps ~sw_width_bits:64 ~width_bits:64
      ~in_port_widths:[ 8; 8 ] ~out_port_widths:[ 8 ]
      ~engines:[ Comp.default_engine Comp.Dma ]
  in
  (match Adg.validate adg with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "mesh invalid: %s" (String.concat "; " errs));
  Alcotest.(check int) "pe count" 6 (List.length (Adg.pes adg));
  Alcotest.(check int) "switch count" 12 (List.length (Adg.switches adg))

let test_seed_validates () =
  let caps = Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ] in
  let adg = Builder.seed ~caps ~width_bits:64 in
  match Adg.validate adg with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "seed invalid: %s" (String.concat "; " errs)

let test_general_overlay () =
  let sys = Builder.general_overlay () in
  (match Adg.validate sys.Sys_adg.adg with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "general invalid: %s" (String.concat "; " errs));
  let s = Adg.stats sys.Sys_adg.adg in
  Alcotest.(check int) "24 PEs" 24 s.n_pe;
  Alcotest.(check int) "35 switches" 35 s.n_switch;
  Alcotest.(check int) "int mul capable PEs" 24 s.int_mul;
  Alcotest.(check int) "flt sqrt capable PEs" 24 s.flt_sqrt;
  Alcotest.(check int) "in port bw" 224 s.in_port_bw;
  Alcotest.(check int) "out port bw" 160 s.out_port_bw;
  Alcotest.(check int) "4 tiles" 4 sys.Sys_adg.system.System.tiles

let test_stats_engine_counts () =
  let sys = Builder.general_overlay () in
  let s = Adg.stats sys.Sys_adg.adg in
  Alcotest.(check int) "one gen" 1 s.n_gen;
  Alcotest.(check int) "one rec" 1 s.n_rec;
  Alcotest.(check int) "one reg" 1 s.n_reg;
  Alcotest.(check (list int)) "spad capacity" [ 32 * 1024 ] s.spad_caps

let test_config_bits_positive_and_monotone () =
  let caps = Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ] in
  let small = Builder.seed ~caps ~width_bits:64 in
  let big = (Builder.general_overlay ()).Sys_adg.adg in
  let sys_small = Sys_adg.make small System.default in
  let sys_big = Sys_adg.make big System.default in
  let cb_small = Sys_adg.config_bits sys_small in
  let cb_big = Sys_adg.config_bits sys_big in
  Alcotest.(check bool) "positive" true (cb_small > 0);
  Alcotest.(check bool) "bigger design, bigger bitstream" true (cb_big > cb_small);
  Alcotest.(check bool) "reconfig cycles positive" true
    (Sys_adg.reconfigure_cycles sys_small > 0)

let test_remove_switch_invalidates () =
  let caps = Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ] in
  let adg = Builder.seed ~caps ~width_bits:64 in
  (* Removing every switch must break validation (PEs become unreachable). *)
  let no_sw = List.fold_left Adg.remove_node adg (Adg.switches adg) in
  Alcotest.(check bool) "invalid after removing switches" true
    (match Adg.validate no_sw with Ok () -> false | Error _ -> true)

let test_system_candidates () =
  let cands = System.candidates () in
  Alcotest.(check bool) "many candidates" true (List.length cands > 100);
  Alcotest.(check bool) "all positive tiles" true
    (List.for_all (fun (s : System.t) -> s.tiles >= 1) cands);
  let both = System.candidates ~topologies:[ System.Crossbar; System.Ring ] () in
  Alcotest.(check int) "two topologies double the space"
    (2 * List.length cands) (List.length both)

let test_noc_topologies () =
  let base = System.default in
  let xbar = { base with System.tiles = 8; noc_bytes = 32 } in
  let ring = { xbar with System.noc_topology = System.Ring } in
  Alcotest.(check int) "crossbar aggregate" (8 * 32) (System.shared_bandwidth xbar);
  Alcotest.(check bool) "ring is bisection-limited" true
    (System.shared_bandwidth ring < System.shared_bandwidth xbar)

let test_avg_radix () =
  let caps = Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ] in
  let adg =
    Builder.mesh ~rows:2 ~cols:2 ~caps ~sw_width_bits:64 ~width_bits:64 ~in_port_widths:[ 8 ]
      ~out_port_widths:[ 8 ]
      ~engines:[ Comp.default_engine Comp.Dma ]
  in
  Alcotest.(check bool) "radix positive" true (Adg.avg_switch_radix adg > 1.0)

(* capability sets are balanced trees, so polymorphic equality on nodes is
   too strict; the serialized text is canonical (sorted caps, ordered ids) *)
let same_design (a : Sys_adg.t) (b : Sys_adg.t) =
  Serial.to_string a = Serial.to_string b

let test_serial_roundtrip_general () =
  let sys = Builder.general_overlay () in
  match Serial.of_string (Serial.to_string sys) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (same_design sys back)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_serial_save_load () =
  let sys = Builder.general_overlay () in
  let path = Filename.temp_file "overgen" ".adg" in
  Serial.save sys ~path;
  (match Serial.load ~path with
  | Ok back -> Alcotest.(check bool) "file roundtrip" true (same_design sys back)
  | Error e -> Alcotest.failf "load error: %s" e);
  Sys.remove path

let test_serial_rejects_garbage () =
  (match Serial.of_string "hello" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject a missing header");
  match Serial.of_string "overgen-adg v1\nnode x pe width=64" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject a bad node line"

let prop_serial_roundtrip_after_mutation =
  QCheck.Test.make ~name:"serialization round-trips mutated designs" ~count:10
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Overgen_util.Rng.create seed in
      let sys = Builder.general_overlay () in
      let pool = Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.F64; Dtype.I16 ] in
      let usage = Overgen_dse.Mutate.usage_of [] in
      let adg = ref sys.adg in
      for _ = 1 to 12 do
        let adg', _ =
          Overgen_dse.Mutate.propose rng ~preserve:false ~caps_pool:pool !adg usage
        in
        adg := adg'
      done;
      let mutated = Sys_adg.with_adg sys !adg in
      match Serial.of_string (Serial.to_string mutated) with
      | Ok back -> same_design mutated back
      | Error _ -> false)

let prop_mesh_always_valid =
  QCheck.Test.make ~name:"meshes of any size validate" ~count:30
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (rows, cols) ->
      let caps = Op.Cap.of_ops [ Op.Add; Op.Mul ] [ Dtype.I64 ] in
      let adg =
        Builder.mesh ~rows ~cols ~caps ~sw_width_bits:64 ~width_bits:64
          ~in_port_widths:[ 8; 8 ]
          ~out_port_widths:[ 8 ]
          ~engines:[ Comp.default_engine Comp.Dma; Comp.default_engine Comp.Spad ]
      in
      match Adg.validate adg with Ok () -> true | Error _ -> false)

let prop_digraph_add_remove_inverse =
  QCheck.Test.make ~name:"add then remove node restores edge count" ~count:100
    QCheck.(int_range 2 20)
    (fun n ->
      let g =
        List.fold_left (fun g i -> Digraph.add_node g i i) Digraph.empty
          (List.init n Fun.id)
      in
      let g = Digraph.add_edge g 0 1 in
      let before = Digraph.edge_count g in
      let g' = Digraph.remove_node (Digraph.add_node g 999 999) 999 in
      Digraph.edge_count g' = before && Digraph.node_count g' = n)

(* Golden digest of the reference design.  Serial.fingerprint is a durable
   content address: the schedule cache and the overlay registry persist
   records keyed by it, so if this digest moves, existing store files
   silently stop matching.  An intentional serialization change must bump
   the codec schema AND update this constant. *)
let general_overlay_golden_fingerprint = "86c67ef0e52596aa805d8218208fd11f"

let test_fingerprint_golden () =
  Alcotest.(check string)
    "fingerprint of the reference general overlay is stable (a mismatch \
     means the on-disk serialization format changed: bump the store codec \
     schema and update the golden digest)"
    general_overlay_golden_fingerprint
    (Serial.fingerprint (Builder.general_overlay ()))

(* The ring topology and a PE with no capabilities ("-") survive the text
   format too; the general overlay has neither. *)
let test_serial_roundtrip_ring () =
  let sys = Builder.general_overlay () in
  let pe, p = List.hd (Adg.pes sys.adg) in
  let sys =
    Sys_adg.with_adg
      { sys with system = { sys.system with noc_topology = System.Ring } }
      (Adg.set_comp sys.adg pe (Comp.Pe { p with caps = Op.Cap.empty }))
  in
  match Serial.of_string (Serial.to_string sys) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (same_design sys back)
  | Error e -> Alcotest.failf "parse error: %s" e

(* The list-free queries agree with the list-based ones: degrees with the
   lengths of [preds]/[succs], the one-walk iterator with [nodes] and
   [succs] in order, [max_id] with the largest node id (-1 when empty). *)
let test_list_free_queries () =
  let adg = (Builder.general_overlay ()).Sys_adg.adg in
  List.iter
    (fun (id, _) ->
      Alcotest.(check int) "out degree" (List.length (Adg.succs adg id)) (Adg.out_degree adg id);
      Alcotest.(check int) "in degree" (List.length (Adg.preds adg id)) (Adg.in_degree adg id))
    (Adg.nodes adg);
  let walk = ref [] in
  Adg.iter_with_succs adg
    ~node:(fun id _ -> walk := `Node id :: !walk)
    ~succ:(fun s -> walk := `Succ s :: !walk);
  let want =
    List.concat_map
      (fun (id, _) -> `Node id :: List.map (fun s -> `Succ s) (Adg.succs adg id))
      (Adg.nodes adg)
  in
  Alcotest.(check bool) "walk order" true (List.rev !walk = want);
  Alcotest.(check int) "max id" (fst (List.nth (Adg.nodes adg) (Adg.node_count adg - 1)))
    (Adg.max_id adg);
  Alcotest.(check int) "empty max id" (-1) (Adg.max_id Adg.empty)

let tests =
  [
    Alcotest.test_case "digraph basic" `Quick test_digraph_basic;
    Alcotest.test_case "digraph remove node" `Quick test_digraph_remove_node_cleans_edges;
    Alcotest.test_case "digraph self loop" `Quick test_digraph_rejects_self_loop;
    Alcotest.test_case "adg edge legality" `Quick test_adg_edge_legality;
    Alcotest.test_case "mesh validates" `Quick test_mesh_validates;
    Alcotest.test_case "seed validates" `Quick test_seed_validates;
    Alcotest.test_case "general overlay stats" `Quick test_general_overlay;
    Alcotest.test_case "engine counts" `Quick test_stats_engine_counts;
    Alcotest.test_case "config bits" `Quick test_config_bits_positive_and_monotone;
    Alcotest.test_case "remove switches invalid" `Quick test_remove_switch_invalidates;
    Alcotest.test_case "system candidates" `Quick test_system_candidates;
    Alcotest.test_case "noc topologies" `Quick test_noc_topologies;
    Alcotest.test_case "avg radix" `Quick test_avg_radix;
    Alcotest.test_case "serial roundtrip" `Quick test_serial_roundtrip_general;
    Alcotest.test_case "serial save/load" `Quick test_serial_save_load;
    Alcotest.test_case "serial rejects garbage" `Quick test_serial_rejects_garbage;
    Alcotest.test_case "fingerprint golden" `Quick test_fingerprint_golden;
    QCheck_alcotest.to_alcotest prop_serial_roundtrip_after_mutation;
    QCheck_alcotest.to_alcotest prop_mesh_always_valid;
    QCheck_alcotest.to_alcotest prop_digraph_add_remove_inverse;
    Alcotest.test_case "serial ring + empty caps" `Quick test_serial_roundtrip_ring;
    Alcotest.test_case "list-free queries" `Quick test_list_free_queries;
  ]
