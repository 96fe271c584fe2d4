open Overgen_adg
open Overgen_workload
open Overgen_mdfg
open Overgen_scheduler

let general () = Builder.general_overlay ()

let schedule_kernel ?(tuned = false) sys name =
  let k = Kernels.find name in
  let c = Compile.compile ~tuned k in
  Spatial.schedule_app sys c

let ok_schedules sys name =
  match schedule_kernel sys name with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s failed to schedule: %s" name e

let test_all_kernels_schedule_on_general () =
  let sys = general () in
  List.iter
    (fun (k : Ir.kernel) ->
      match schedule_kernel sys k.name with
      | Ok scheds ->
        Alcotest.(check int)
          (k.name ^ " one schedule per region")
          (List.length (Kernels.regions_for ~tuned:false k))
          (List.length scheds)
      | Error e -> Alcotest.failf "%s: %s" k.name e)
    Kernels.all

let test_schedules_validate () =
  let sys = general () in
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun s ->
          match Schedule.validate s sys with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s invalid: %s" k.name e)
        (ok_schedules sys k.name))
    Kernels.all

let test_dedicated_pes () =
  (* no PE hosts two instructions, within or across regions of one app *)
  let sys = general () in
  let scheds = ok_schedules sys "cholesky" in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (s : Schedule.t) ->
      Schedule.Imap.iter
        (fun _ pe ->
          Alcotest.(check bool) "pe not shared" false (Hashtbl.mem seen pe);
          Hashtbl.replace seen pe ())
        s.inst_pe)
    scheds

let test_ports_not_shared_across_regions () =
  let sys = general () in
  let scheds = ok_schedules sys "solver" in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Schedule.t) ->
      Schedule.Imap.iter
        (fun _ hw ->
          Alcotest.(check bool) "port not shared" false (Hashtbl.mem seen hw);
          Hashtbl.replace seen hw ())
        s.port_map)
    scheds

let test_fir_uses_recurrence_engine () =
  let sys = general () in
  let scheds = ok_schedules sys "fir" in
  let s = List.hd scheds in
  Alcotest.(check bool) "recurrence streams bound" true (s.rec_streams <> []);
  List.iter
    (fun (_, e) ->
      match Adg.comp_exn sys.adg e with
      | Comp.Engine { kind = Comp.Rec; _ } -> ()
      | _ -> Alcotest.fail "rec stream on non-rec engine")
    s.rec_streams

(* The register-engine path: a scalar reduction binds its collection
   stream to a register engine, schedules at II 1, and the compiled mDFG
   replays equal to the loop-nest interpreter. *)
let test_reduce_uses_register_engine () =
  let sys = general () in
  let k = Dot_reg.kernel in
  let scheds =
    match Spatial.schedule_app sys (Compile.compile k) with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s failed to schedule: %s" k.name e
  in
  let s = List.hd scheds in
  Alcotest.(check bool) "register streams bound" true (s.reg_streams <> []);
  Alcotest.(check int) "ii" 1 s.ii;
  List.iter
    (fun (_, e) ->
      match Adg.comp_exn sys.adg e with
      | Comp.Engine { kind = Comp.Reg; _ } -> ()
      | _ -> Alcotest.fail "reg stream on non-reg engine")
    s.reg_streams;
  List.iter
    (fun s ->
      match Schedule.validate s sys with
      | Ok () -> ()
      | Error e -> Alcotest.failf "dot-reg schedule invalid: %s" e)
    scheds;
  match Overgen_exec.Exec.check k with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dot-reg replay: %s" e

let test_indirect_arrays_on_indirect_engine () =
  let sys = general () in
  let scheds = ok_schedules sys "crs" in
  let s = List.hd scheds in
  let x_engine = List.assoc "x" s.array_engine in
  match Adg.comp_exn sys.adg x_engine with
  | Comp.Engine e -> Alcotest.(check bool) "indirect support" true e.indirect
  | _ -> Alcotest.fail "x not on an engine"

let test_routes_start_and_end_correctly () =
  let sys = general () in
  let scheds = ok_schedules sys "mm" in
  List.iter
    (fun (s : Schedule.t) ->
      List.iter
        (fun ((src, dst), (r : Schedule.route)) ->
          (match r.hops with
          | [] -> Alcotest.fail "empty route"
          | first :: _ ->
            let expected =
              match (Dfg.node s.variant.dfg src).kind with
              | Dfg.Input _ -> Schedule.Imap.find_opt src s.port_map
              | _ -> Schedule.Imap.find_opt src s.inst_pe
            in
            Alcotest.(check (option int)) "route starts at src" (Some first) expected);
          let last = List.nth r.hops (List.length r.hops - 1) in
          let expected_dst =
            match (Dfg.node s.variant.dfg dst).kind with
            | Dfg.Output _ -> Schedule.Imap.find_opt dst s.port_map
            | _ -> Schedule.Imap.find_opt dst s.inst_pe
          in
          Alcotest.(check (option int)) "route ends at dst" (Some last) expected_dst)
        s.routes)
    scheds

(* [validate] checks a route's endpoints, not only its hop edges: one
   route cut short of its last hop is a path of present edges that stops
   before the consumer, and must be rejected naming that route. *)
let test_validate_rejects_cut_route () =
  let sys = general () in
  let s = List.hd (ok_schedules sys "mm") in
  Alcotest.(check bool) "intact schedule validates" true
    (Schedule.validate s sys = Ok ());
  match List.find_opt (fun (_, (r : Schedule.route)) -> List.length r.hops >= 2) s.routes with
  | None -> Alcotest.fail "no route with two hops"
  | Some (edge, r) -> (
    let cut = List.filteri (fun i _ -> i < List.length r.hops - 1) r.hops in
    let routes =
      List.map
        (fun (e, r') -> if e = edge then (e, { r' with Schedule.hops = cut }) else (e, r'))
        s.routes
    in
    let name = Printf.sprintf "route %d->%d" (fst edge) (snd edge) in
    match Schedule.validate { s with routes } sys with
    | Ok () -> Alcotest.failf "%s cut short of its consumer validated" name
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names %s" e name)
        true
        (String.starts_with ~prefix:name e))

(* [validate] names the rule a schedule breaks.  Each case starts from a
   valid schedule on the general overlay and breaks one rule, on the graph
   through [Adg.set_comp] or in the schedule record, and expects the error
   to carry that rule's phrase. *)
let test_validate_rejects_each_rule () =
  let sys = general () in
  let scheds =
    List.concat_map (fun (k : Ir.kernel) -> ok_schedules sys k.name) Kernels.all
  in
  let find_case what f =
    match List.find_map f scheds with
    | Some case -> case
    | None -> Alcotest.failf "no schedule on the general overlay has %s" what
  in
  let on_graph id f =
    Sys_adg.with_adg sys (Adg.set_comp sys.adg id (f (Adg.comp_exn sys.adg id)))
  in
  let inst_case (s : Schedule.t) =
    Option.map
      (fun (inst, pe) ->
        match (Dfg.node s.variant.dfg inst).kind with
        | Dfg.Inst { op; dtype; _ } -> (s, pe, op, dtype)
        | _ -> Alcotest.fail "inst_pe holds a non-instruction")
      (Schedule.Imap.min_binding_opt s.inst_pe)
  in
  let stream_port (s : Schedule.t) (st : Stream.t) =
    Option.bind st.port (fun p -> Schedule.Imap.find_opt p s.port_map)
  in
  let map_pe f = function
    | Comp.Pe p -> Comp.Pe (f p)
    | _ -> Alcotest.fail "pe expected"
  in
  let map_port f = function
    | Comp.In_port p -> Comp.In_port (f p)
    | Comp.Out_port p -> Comp.Out_port (f p)
    | _ -> Alcotest.fail "port expected"
  in
  let map_engine f = function
    | Comp.Engine e -> Comp.Engine (f e)
    | _ -> Alcotest.fail "engine expected"
  in
  let s, pe, op, dtype = find_case "an instruction" inst_case in
  let lost_cap =
    ( s,
      s,
      on_graph pe
        (map_pe (fun p -> { p with caps = Op.Cap.remove (op, dtype) p.caps })) )
  in
  let narrow_pe =
    (s, s, on_graph pe (map_pe (fun p -> { p with width_bits = Dtype.bits dtype - 1 })))
  in
  let shared_pe =
    (* two instructions of one op and dtype, moved onto one PE *)
    find_case "two instructions that fit one PE"
      (fun (s : Schedule.t) ->
        let insts = Schedule.Imap.bindings s.inst_pe in
        List.find_map
          (fun (a, pe_a) ->
            List.find_map
              (fun (b, _) ->
                let kind i = (Dfg.node s.variant.dfg i).kind in
                match (kind a, kind b) with
                | Dfg.Inst x, Dfg.Inst y
                  when a < b && x.op = y.op && x.dtype = y.dtype ->
                  Some (s, { s with inst_pe = Schedule.Imap.add b pe_a s.inst_pe }, sys)
                | _ -> None)
              insts)
          insts)
  in
  let narrow_port =
    find_case "a stream on a port"
      (fun (s : Schedule.t) ->
        List.find_map
          (fun (st : Stream.t) ->
            Option.map
              (fun hw ->
                ( s,
                  s,
                  on_graph hw
                    (map_port (fun p -> { p with width_bytes = st.elem_bytes - 1 }))
                ))
              (stream_port s st))
          s.variant.streams)
  in
  let unstated_port =
    find_case "a stationary stream on a port"
      (fun (s : Schedule.t) ->
        List.find_map
          (fun (st : Stream.t) ->
            if st.reuse.stationary > 1.0 then
              Option.map
                (fun hw ->
                  (s, s, on_graph hw (map_port (fun p -> { p with stated = false }))))
                (stream_port s st)
            else None)
          s.variant.streams)
  in
  let engine_case what ok =
    find_case what
      (fun (s : Schedule.t) ->
        List.find_map
          (fun (name, e) ->
            match Adg.comp_exn sys.adg e with
            | Comp.Engine en when ok s name en -> Some (s, e)
            | _ -> None)
          s.array_engine)
  in
  let full_spad =
    let s, e =
      engine_case "an array on a scratchpad" (fun _ _ en -> en.kind = Comp.Spad)
    in
    (s, s, on_graph e (map_engine (fun en -> { en with capacity = 0 })))
  in
  let direct_engine =
    let s, e =
      engine_case "an indirect array" (fun (s : Schedule.t) name _ ->
          List.exists
            (fun (st : Stream.t) ->
              st.array = name
              && match st.access with Stream.Indirect _ -> true | _ -> false)
            s.variant.streams)
    in
    (s, s, on_graph e (map_engine (fun en -> { en with indirect = false })))
  in
  let reg_on_dma =
    (* no suite kernel has a scalar register stream: bind one of [s]'s
       streams as one, on a DMA engine *)
    match (s.variant.streams, Adg.engines_of_kind sys.adg Comp.Dma) with
    | st :: _, (dma, _) :: _ ->
      (s, { s with reg_streams = (st.id, dma) :: s.reg_streams }, sys)
    | _ -> Alcotest.fail "no stream or no DMA engine"
  in
  let deep_delay =
    find_case "a route into an instruction"
      (fun (s : Schedule.t) ->
        List.find_map
          (fun (((_, dst) as edge), _) ->
            match Schedule.Imap.find_opt dst s.inst_pe with
            | Some pe -> (
              match Adg.comp_exn sys.adg pe with
              | Comp.Pe p ->
                let routes =
                  List.map
                    (fun (e, (r : Schedule.route)) ->
                      if e = edge then (e, { r with delay = p.delay_fifo + 1 })
                      else (e, r))
                    s.routes
                in
                Some (s, { s with routes }, sys)
              | _ -> None)
            | None -> None)
          s.routes)
  in
  List.iter
    (fun (rule, phrase, (intact, broken, sys')) ->
      Alcotest.(check bool) (rule ^ ": intact schedule validates") true
        (Schedule.validate intact sys = Ok ());
      match Schedule.validate broken sys' with
      | Ok () -> Alcotest.failf "%s: validated" rule
      | Error e ->
        let rec has i =
          i + String.length phrase <= String.length e
          && (String.sub e i (String.length phrase) = phrase || has (i + 1))
        in
        Alcotest.(check bool) (Printf.sprintf "%s: %S names it" rule e) true (has 0))
    [
      ("lost capability", "lost cap", lost_cap);
      ("narrow PE", "too narrow", narrow_pe);
      ("shared PE", "shared by insts", shared_pe);
      ("narrow port", "narrower than element", narrow_port);
      ("stationary stream on a stateless port", "lacks stream-state", unstated_port);
      ("spad over capacity", "over capacity", full_spad);
      ("indirect array on a direct engine", "lacks indirect", direct_engine);
      ("reg stream on a DMA", "reg stream on non-reg engine", reg_on_dma);
      ("delay beyond the FIFO", "needs delay", deep_delay);
    ]

let test_ii_at_least_one () =
  let sys = general () in
  List.iter
    (fun (k : Ir.kernel) ->
      List.iter
        (fun (s : Schedule.t) ->
          Alcotest.(check bool) "ii >= 1" true (s.ii >= 1);
          Alcotest.(check bool) "ipc positive" true (Schedule.ipc s > 0.0))
        (ok_schedules sys k.name))
    Kernels.all

let test_repair_after_harmless_change () =
  let sys = general () in
  let scheds = ok_schedules sys "fir" in
  (* adding an unrelated PE must not break anything: fast-path repair *)
  let adg, _ =
    Adg.add sys.adg (Comp.Pe (Comp.default_pe (Op.Cap.of_ops [ Op.Add ] [ Dtype.I64 ])))
  in
  let sys' = Sys_adg.with_adg sys adg in
  match Spatial.repair sys' scheds with
  | Ok scheds' -> Alcotest.(check int) "same count" (List.length scheds) (List.length scheds')
  | Error e -> Alcotest.failf "repair failed: %s" e

let test_repair_reroutes_after_switch_removal () =
  let sys = general () in
  let scheds = ok_schedules sys "accumulate" in
  (* remove one switch used by a route, after adding bypass edges around it
     (what node collapsing does) *)
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let used =
    List.concat_map (fun (s : Schedule.t) -> List.concat_map (fun (_, r) -> pairs r.Schedule.hops) s.routes) scheds
    |> List.sort_uniq compare
  in
  let victim =
    List.find_map
      (fun (a, b) ->
        match (Adg.comp_exn sys.adg a, Adg.comp_exn sys.adg b) with
        | Comp.Switch _, Comp.Switch _ -> Some b
        | _ -> None)
      used
  in
  match victim with
  | None -> () (* degenerate mapping: nothing to test *)
  | Some sw ->
    (* connect the victim's neighbours directly, then delete it *)
    let adg =
      List.fold_left
        (fun adg p ->
          List.fold_left
            (fun adg n ->
              if p <> n && not (Adg.mem_edge adg p n) then
                try Adg.add_edge adg p n with Invalid_argument _ -> adg
              else adg)
            adg (Adg.succs sys.adg sw))
        sys.adg (Adg.preds sys.adg sw)
    in
    let adg = Adg.remove_node adg sw in
    let sys' = Sys_adg.with_adg sys adg in
    (match Spatial.repair sys' scheds with
    | Ok scheds' ->
      List.iter
        (fun s ->
          match Schedule.validate s sys' with
          | Ok () -> ()
          | Error e -> Alcotest.failf "repaired schedule invalid: %s" e)
        scheds'
    | Error e -> Alcotest.failf "repair should reroute: %s" e)

let test_repair_fails_when_pe_capability_lost () =
  let sys = general () in
  let scheds = ok_schedules sys "mm" in
  let s = List.hd scheds in
  (* strip the capability of a PE actually used by an instruction *)
  let inst, pe = Schedule.Imap.min_binding s.inst_pe in
  let op, dtype =
    match (Dfg.node s.variant.dfg inst).kind with
    | Dfg.Inst { op; dtype; _ } -> (op, dtype)
    | _ -> Alcotest.fail "inst expected"
  in
  let adg =
    match Adg.comp_exn sys.adg pe with
    | Comp.Pe p ->
      Adg.set_comp sys.adg pe (Comp.Pe { p with caps = Op.Cap.remove (op, dtype) p.caps })
    | _ -> Alcotest.fail "pe expected"
  in
  let sys' = Sys_adg.with_adg sys adg in
  (match Schedule.validate s sys' with
  | Ok () -> Alcotest.fail "validation should notice the missing capability"
  | Error _ -> ());
  match Spatial.repair sys' scheds with
  | Ok _ -> Alcotest.fail "repair cannot fix placements"
  | Error _ -> ()

(* A mutation can delete the highest-numbered node a prior schedule sits
   on, leaving a placement beyond the new graph's id range: repair must
   report that as a failed repair (so reschedule moves on to its next
   tier), not index past its usage tables. *)
let test_repair_fails_when_placed_pe_removed () =
  let sys = general () in
  let c = Compile.compile (Kernels.find "mm") in
  let scheds =
    match Spatial.schedule_app sys c with
    | Ok s -> s
    | Error e -> Alcotest.failf "mm: %s" e
  in
  let top =
    List.fold_left
      (fun acc (s : Schedule.t) ->
        Schedule.Imap.fold (fun _ pe acc -> max acc pe) s.inst_pe acc)
      (-1) scheds
  in
  let adg =
    List.fold_left
      (fun adg (id, _) -> if id >= top then Adg.remove_node adg id else adg)
      sys.adg (Adg.nodes sys.adg)
  in
  Alcotest.(check bool) "placed PE is out of the graph's id range" true
    (Adg.max_id adg < top);
  let sys' = Sys_adg.with_adg sys adg in
  (match Spatial.repair sys' scheds with
  | Ok _ -> Alcotest.fail "repair cannot keep a placement on a removed PE"
  | Error _ -> ());
  match Spatial.reschedule sys' c ~prior:scheds with
  | Ok (_, Spatial.Repaired) -> Alcotest.fail "reschedule must not report a repair"
  | Ok ((_ : Schedule.t list), (Spatial.Incremental | Spatial.Full)) | Error _ -> ()

(* Engine-binding breaks fall through to the full re-map: once the engine
   an array is bound to is gone, repair fails and reschedule answers with
   a full re-map (or its error), never Repaired or Incremental.  The
   second case also strips a placed PE's capability, which alone the
   incremental tier would absorb. *)
let test_engine_break_falls_through_to_full () =
  let sys = general () in
  let c = Compile.compile ~tuned:false (Kernels.find "mm") in
  let prior =
    match Spatial.schedule_app sys c with
    | Ok s -> s
    | Error e -> Alcotest.failf "mm: %s" e
  in
  let s = List.hd prior in
  let engine =
    match s.array_engine with
    | (_, e) :: _ -> e
    | [] -> Alcotest.fail "mm binds no array"
  in
  let inst, pe = Schedule.Imap.min_binding s.inst_pe in
  let strip_cap adg =
    match ((Dfg.node s.variant.dfg inst).kind, Adg.comp_exn adg pe) with
    | Dfg.Inst { op; dtype; _ }, Comp.Pe p ->
      Adg.set_comp adg pe (Comp.Pe { p with caps = Op.Cap.remove (op, dtype) p.caps })
    | _ -> Alcotest.fail "instruction on a PE expected"
  in
  let no_engine = Adg.remove_node sys.adg engine in
  List.iter
    (fun (label, adg) ->
      let sys' = Sys_adg.with_adg sys adg in
      Alcotest.(check bool) (label ^ ": repair fails") true
        (Result.is_error (Spatial.repair sys' prior));
      match Spatial.reschedule sys' c ~prior with
      | Ok (_, Spatial.Repaired) -> Alcotest.failf "%s: answered Repaired" label
      | Ok (_, Spatial.Incremental) ->
        Alcotest.failf "%s: answered Incremental" label
      | Ok ((_ : Schedule.t list), Spatial.Full) | Error _ -> ())
    [ ("engine removed", no_engine); ("engine removed, cap lost", strip_cap no_engine) ]

let test_relaxation_on_small_fabric () =
  (* a tiny fabric forces fallback to a narrow variant, not failure *)
  let caps = Op.Cap.of_ops [ Op.Add; Op.Mul; Op.Acc ] [ Dtype.I16 ] in
  let adg =
    Builder.mesh ~rows:2 ~cols:3 ~caps ~sw_width_bits:64 ~width_bits:64
      ~in_port_widths:[ 16; 16; 8 ] ~out_port_widths:[ 16; 8 ]
      ~engines:
        [ Comp.default_engine Comp.Dma; Comp.default_engine Comp.Rec;
          Comp.default_engine Comp.Reg ]
  in
  let sys = Sys_adg.make adg System.default in
  match schedule_kernel sys "acc-sqr" with
  | Ok [ s ] ->
    Alcotest.(check bool) "relaxed below max unroll" true (s.variant.unroll <= 8)
  | Ok _ -> Alcotest.fail "one region expected"
  | Error e -> Alcotest.failf "should relax, not fail: %s" e

let test_compute_ii_respects_port_width () =
  let sys = general () in
  let scheds = ok_schedules sys "stencil-2d" in
  let s = List.hd scheds in
  (* stencil-2d at unroll u needs 9+ lanes through one port; ii must cover *)
  let needed =
    Schedule.Imap.fold
      (fun dfg_port hw acc ->
        let w =
          match (Dfg.node s.variant.dfg dfg_port).kind with
          | Dfg.Input { width_bytes; _ } | Dfg.Output { width_bytes } -> width_bytes
          | _ -> 0
        in
        let hw_w =
          match Adg.comp_exn sys.adg hw with
          | Comp.In_port p | Comp.Out_port p -> p.width_bytes
          | _ -> 1
        in
        max acc (Overgen_util.Stats.div_ceil (max 1 w) (max 1 hw_w)))
      s.port_map 1
  in
  Alcotest.(check bool) "ii >= port pressure" true (s.ii >= needed)

let prop_schedule_deterministic =
  QCheck.Test.make ~name:"scheduling is deterministic" ~count:3 QCheck.unit
    (fun () ->
      let sys = general () in
      match (schedule_kernel sys "fir", schedule_kernel sys "fir") with
      | Ok a, Ok b ->
        List.for_all2
          (fun (x : Schedule.t) (y : Schedule.t) ->
            x.ii = y.ii
            && Schedule.Imap.equal ( = ) x.inst_pe y.inst_pe
            && Schedule.Imap.equal ( = ) x.port_map y.port_map)
          a b
      | _ -> false)

(* Regression: [Spatial.restore] used to alias the snapshot's usage
   tables into the live context, so scheduling after a restore corrupted
   the snapshot and a second restore resurrected the corrupted state.
   Restoring the same snapshot twice must reproduce identical schedules. *)
let test_double_restore () =
  let sys = general () in
  let compiled = Compile.compile ~tuned:false (Kernels.find "fir") in
  let variant =
    match compiled.Compile.per_region with
    | (v :: _) :: _ -> v
    | _ -> Alcotest.fail "fir compiled to no variants"
  in
  let ctx = Spatial.fresh_ctx sys in
  let snap = Spatial.snapshot ctx in
  let attempt tag =
    match Spatial.schedule_variant ctx variant with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s schedule failed: %s" tag e
  in
  let s1 = attempt "first" in
  Spatial.restore ctx snap;
  let s2 = attempt "after first restore" in
  Spatial.restore ctx snap;
  let s3 = attempt "after second restore" in
  let same tag (a : Schedule.t) (b : Schedule.t) =
    Alcotest.(check int) (tag ^ ": same ii") a.ii b.ii;
    Alcotest.(check bool)
      (tag ^ ": same placements")
      true
      (Schedule.Imap.equal ( = ) a.inst_pe b.inst_pe)
  in
  same "restore 1" s1 s2;
  same "restore 2" s1 s3

(* ------------------------------------------------------------------ *)
(* Undo-log rollback properties                                        *)
(* ------------------------------------------------------------------ *)

module Rng = Overgen_util.Rng
module Obs = Overgen_obs.Obs
module Mutate = Overgen_dse.Mutate
module Dse = Overgen_dse.Dse

let variant_pool () =
  List.concat_map
    (fun name ->
      let c = Compile.compile ~tuned:false (Kernels.find name) in
      List.concat c.Compile.per_region)
    [ "fir"; "mm"; "accumulate" ]

let first_variant name =
  let c = Compile.compile ~tuned:false (Kernels.find name) in
  match c.Compile.per_region with
  | (v :: _) :: _ -> v
  | _ -> Alcotest.failf "%s compiled to no variants" name

(* The copy-based oracle: [debug_state] captured at snapshot time is
   exactly what a five-table Hashtbl.copy snapshot would have preserved.
   Drive random mutate/snapshot/restore/double-restore sequences and
   require every restore to reproduce the dump taken with its mark. *)
let prop_undo_log_matches_oracle =
  QCheck.Test.make ~name:"undo-log restore matches state captured at snapshot"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sys = general () in
      let variants = variant_pool () in
      let nv = List.length variants in
      let rng = Rng.create seed in
      let ctx = Spatial.fresh_ctx sys in
      let stack = ref [ (Spatial.snapshot ctx, Spatial.debug_state ctx) ] in
      let check_restore (snap, dump) =
        Spatial.restore ctx snap;
        if Spatial.debug_state ctx <> dump then
          QCheck.Test.fail_report "restore diverged from snapshot-time state"
      in
      for _ = 1 to 60 do
        match Rng.int rng 4 with
        | 0 -> stack := (Spatial.snapshot ctx, Spatial.debug_state ctx) :: !stack
        | 1 | 2 ->
          let v = List.nth variants (Rng.int rng nv) in
          ignore (Spatial.schedule_variant ctx v)
        | _ -> (
          match !stack with
          | [] -> ()
          | top :: rest ->
            check_restore top;
            (* restoring the same mark again must be a no-op *)
            if Rng.int rng 2 = 0 then check_restore top;
            if Rng.int rng 2 = 0 then stack := rest)
      done;
      (* unwind the remaining marks in LIFO order *)
      List.iter check_restore !stack;
      true)

(* schedule_app's redo record: capturing after a variant, restoring to the
   pre-variant mark and replaying must land on exactly the state the
   variant produced; the replayed state is logged, so it rolls back too. *)
let prop_capture_replay_matches_schedule =
  QCheck.Test.make ~name:"capture, restore, replay = state after schedule_variant"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sys = general () in
      let variants = variant_pool () in
      let nv = List.length variants in
      let rng = Rng.create seed in
      let ctx = Spatial.fresh_ctx sys in
      let expect what want =
        if Spatial.debug_state ctx <> want then QCheck.Test.fail_report what
      in
      for _ = 1 to 20 do
        let before = Spatial.debug_state ctx in
        let mark = Spatial.snapshot ctx in
        match Spatial.schedule_variant ctx (List.nth variants (Rng.int rng nv)) with
        | Error _ -> expect "a failed variant changed the state" before
        | Ok _ ->
          let after = Spatial.debug_state ctx in
          let redo = Spatial.capture ctx mark in
          Spatial.restore ctx mark;
          expect "restore diverged from the pre-variant state" before;
          Spatial.replay ctx redo;
          expect "replay diverged from the post-variant state" after;
          if Rng.int rng 3 = 0 then begin
            Spatial.restore ctx mark;
            expect "restoring a replay diverged from the pre-variant state" before
          end
      done;
      true)

let test_stale_snapshot_raises () =
  let sys = general () in
  let variant = first_variant "fir" in
  let ctx = Spatial.fresh_ctx sys in
  let a = Spatial.snapshot ctx in
  (match Spatial.schedule_variant ctx variant with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "schedule failed: %s" e);
  let b = Spatial.snapshot ctx in
  Spatial.restore ctx a;
  (* [b] marks a log position that no longer exists *)
  (match Spatial.restore ctx b with
  | () -> Alcotest.fail "restoring a popped-past mark must raise"
  | exception Invalid_argument _ -> ());
  (* rebuild the log past [b]'s position: the mark's offset exists again,
     but the entries there are younger than the mark, so it is still stale *)
  (match Spatial.schedule_variant ctx variant with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reschedule failed: %s" e);
  match Spatial.restore ctx b with
  | () -> Alcotest.fail "restoring a mark into a rebuilt log must raise"
  | exception Invalid_argument _ -> ()

let test_rollback_counter_and_free_noop () =
  let sys = general () in
  let variant = first_variant "fir" in
  let ctx = Spatial.fresh_ctx sys in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let v () =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter Obs.Metrics.default
         "overgen_scheduler_rollback_entries_total")
  in
  let before = v () in
  let snap = Spatial.snapshot ctx in
  Spatial.restore ctx snap;
  Alcotest.(check int) "immediate restore pops no entries" before (v ());
  (match Spatial.schedule_variant ctx variant with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "schedule failed: %s" e);
  Spatial.restore ctx snap;
  Alcotest.(check bool) "rollback entries counted" true (v () > before)

(* ------------------------------------------------------------------ *)
(* Incremental rescheduling properties                                 *)
(* ------------------------------------------------------------------ *)

let same_schedules a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Schedule.t) (y : Schedule.t) ->
         x.ii = y.ii
         && x.max_link_share = y.max_link_share
         && x.skew_penalty = y.skew_penalty
         && Schedule.Imap.equal ( = ) x.inst_pe y.inst_pe
         && Schedule.Imap.equal ( = ) x.port_map y.port_map
         && x.array_engine = y.array_engine
         && x.rec_streams = y.rec_streams
         && x.reg_streams = y.reg_streams
         && x.routes = y.routes)
       a b

(* Under schedule-preserving mutations, [reschedule] must be bit-identical
   to the legacy repair-else-full composition whenever it takes the same
   tier, and a valid complete mapping when the incremental tier fires. *)
let prop_reschedule_matches_legacy =
  QCheck.Test.make
    ~name:"reschedule is bit-identical to repair-else-full under preserve"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let sys = general () in
      let compiled = Compile.compile ~tuned:false (Kernels.find "mm") in
      let prior =
        match Spatial.schedule_app sys compiled with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_reportf "schedule failed: %s" e
      in
      let rng = Rng.create seed in
      let usage = Mutate.usage_of prior in
      let caps_pool = Dse.caps_pool [ compiled ] in
      let adg', _desc = Mutate.propose rng ~preserve:true ~caps_pool sys.adg usage in
      let sys' = Sys_adg.with_adg sys adg' in
      let legacy =
        match Spatial.repair sys' prior with
        | Ok s -> `Repaired s
        | Error _ -> (
          match Spatial.schedule_app sys' compiled with
          | Ok s -> `Full s
          | Error _ -> `None)
      in
      match (Spatial.reschedule sys' compiled ~prior, legacy) with
      | Error _, `None -> true
      | Ok (s, Spatial.Repaired), `Repaired l -> same_schedules s l
      | Ok (s, Spatial.Full), `Full l -> same_schedules s l
      | Ok (s, Spatial.Incremental), _ ->
        (* repair could not fix it but the incremental tier did: the result
           must still be one valid schedule per region *)
        List.length s = List.length prior
        && List.for_all (fun sc -> Result.is_ok (Schedule.validate sc sys')) s
      | Ok (_, Spatial.Repaired), _ ->
        QCheck.Test.fail_report "reschedule repaired where legacy repair failed"
      | Ok (_, Spatial.Full), _ ->
        QCheck.Test.fail_report "full fallback diverged from schedule_app"
      | Error _, _ ->
        QCheck.Test.fail_report "reschedule failed where legacy succeeded")

let test_incremental_replaces_only_broken () =
  let sys = general () in
  let compiled = Compile.compile ~tuned:false (Kernels.find "mm") in
  let prior =
    match Spatial.schedule_app sys compiled with
    | Ok s -> s
    | Error e -> Alcotest.failf "schedule failed: %s" e
  in
  let s = List.hd prior in
  (* strip the capability of one used PE: repair cannot fix a broken
     placement, the incremental tier re-places just that instruction *)
  let inst, pe = Schedule.Imap.min_binding s.inst_pe in
  let op, dtype =
    match (Dfg.node s.variant.dfg inst).kind with
    | Dfg.Inst { op; dtype; _ } -> (op, dtype)
    | _ -> Alcotest.fail "inst expected"
  in
  let adg =
    match Adg.comp_exn sys.adg pe with
    | Comp.Pe p ->
      Adg.set_comp sys.adg pe
        (Comp.Pe { p with caps = Op.Cap.remove (op, dtype) p.caps })
    | _ -> Alcotest.fail "pe expected"
  in
  let sys' = Sys_adg.with_adg sys adg in
  Alcotest.(check bool)
    "repair alone cannot fix the lost placement" true
    (Result.is_error (Spatial.repair sys' prior));
  match Spatial.reschedule sys' compiled ~prior with
  | Error e -> Alcotest.failf "reschedule failed: %s" e
  | Ok (scheds, outcome) ->
    Alcotest.(check bool)
      "incremental tier used" true
      (outcome = Spatial.Incremental);
    List.iter
      (fun sc ->
        match Schedule.validate sc sys' with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rescheduled schedule invalid: %s" e)
      scheds;
    (* dedicated PEs: only [inst] sat on the stripped PE, so every other
       placement must be pinned exactly where it was *)
    List.iter2
      (fun (old_s : Schedule.t) (new_s : Schedule.t) ->
        Schedule.Imap.iter
          (fun i old_pe ->
            if old_pe <> pe then
              Alcotest.(check (option int))
                "intact placement pinned" (Some old_pe)
                (Schedule.Imap.find_opt i new_s.inst_pe))
          old_s.inst_pe)
      prior scheds

(* ---------- scheduler work golden ---------- *)

(* A mesh with the ports and engines of Dse.explore's seed mesh. *)
let mesh ~caps ~rows ~cols ~sw_width_bits =
  let engines =
    [
      { (Comp.default_engine Comp.Dma) with indirect = true };
      { (Comp.default_engine Comp.Spad) with indirect = true };
      Comp.default_engine Comp.Rec;
      Comp.default_engine Comp.Gen;
      Comp.default_engine Comp.Reg;
    ]
  in
  Sys_adg.make
    (Builder.mesh ~rows ~cols ~caps ~sw_width_bits ~width_bits:64
       ~in_port_widths:[ 32; 32; 16; 16; 16; 8; 8; 8 ]
       ~out_port_widths:[ 32; 16; 16; 8; 8 ] ~engines)
    System.default

(* Dse.explore's 3x4 seed mesh, rebuilt with the same arguments and the
   capability pool of the 19 suite kernels. *)
let seed_mesh_3x4 () =
  let caps =
    Overgen_dse.Dse.caps_pool
      (List.map (Compile.compile ~tuned:false) Kernels.all)
  in
  mesh ~caps ~rows:3 ~cols:4 ~sw_width_bits:128

(* Everything a schedule decides, as canonical text: placements, port
   map, engine bindings, route hops and delays, link share, skew penalty
   and II, region by region. *)
let schedule_text (scheds : Schedule.t list) =
  let b = Buffer.create 1024 in
  let ints l = String.concat "," (List.map string_of_int l) in
  let imap m =
    ints (List.concat_map (fun (k, v) -> [ k; v ]) (Schedule.Imap.bindings m))
  in
  let assoc f l =
    String.concat ";" (List.map (fun (k, v) -> f k ^ "=" ^ string_of_int v) l)
  in
  List.iter
    (fun (s : Schedule.t) ->
      Printf.bprintf b
        "unroll %d|pe %s|port %s|arr %s|rec %s|reg %s|share %d|skew %d|ii %d\n"
        s.variant.unroll (imap s.inst_pe) (imap s.port_map)
        (assoc Fun.id s.array_engine)
        (assoc string_of_int s.rec_streams)
        (assoc string_of_int s.reg_streams)
        s.max_link_share s.skew_penalty s.ii;
      List.iter
        (fun ((src, dst), (r : Schedule.route)) ->
          Printf.bprintf b "route %d->%d [%s] delay %d\n" src dst (ints r.hops)
            r.delay)
        s.routes)
    scheds;
  Buffer.contents b

let schedule_digest = function
  | Ok scheds -> Digest.to_hex (Digest.string (schedule_text scheds))
  | Error e -> "error: " ^ e

let counter name = Obs.Metrics.counter Obs.Metrics.default name

let work_row sys label (k : Ir.kernel) =
  let w0 = Gc.minor_words () in
  let c = Compile.compile ~tuned:false k in
  let compile_words = Gc.minor_words () -. w0 in
  let tried = counter "overgen_scheduler_variants_tried_total"
  and popped = counter "overgen_scheduler_rollback_entries_total" in
  let t0 = Obs.Metrics.counter_value tried
  and p0 = Obs.Metrics.counter_value popped in
  Obs.enable ();
  let r =
    Fun.protect ~finally:Obs.disable (fun () -> Spatial.schedule_app sys c)
  in
  let t1 = Obs.Metrics.counter_value tried
  and p1 = Obs.Metrics.counter_value popped in
  (* warm: the topology caches of [sys] are filled by the first call *)
  let w0 = Gc.minor_words () in
  let r' = Spatial.schedule_app sys c in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check string) (label ^ "/" ^ k.name ^ " repeatable")
    (schedule_digest r) (schedule_digest r');
  (* the route searches and heap pops of one more warm call *)
  let routes = counter "overgen_scheduler_routes_searched_total"
  and pops = counter "overgen_scheduler_heap_pops_total" in
  let r0 = Obs.Metrics.counter_value routes
  and h0 = Obs.Metrics.counter_value pops in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (Spatial.schedule_app sys c));
  let r1 = Obs.Metrics.counter_value routes
  and h1 = Obs.Metrics.counter_value pops in
  let sim_words =
    match r with
    | Error _ -> "-"
    | Ok scheds ->
      ignore (Overgen_sim.Sim.run sys scheds);
      let w0 = Gc.minor_words () in
      ignore (Overgen_sim.Sim.run sys scheds);
      Printf.sprintf "%.0f" (Gc.minor_words () -. w0)
  in
  Printf.sprintf "%s/%s\t%s\t%d\t%d\t%.0f\t%.0f\t%s\t%d\t%d" label k.name
    (schedule_digest r) (t1 - t0) (p1 - p0) words compile_words sim_words
    (r1 - r0) (h1 - h0)

(* The hot paths the paper's figures time beyond compile, schedule and
   simulate, on the general overlay, and the byte work of the serving
   request path (wire CRC, content hash, fir's request and response
   frames with their sizes, one cache-hit dispatch): per path a digest
   of its result and the minor words of a warm call (the first call
   fills whatever caches the path keeps). *)
let path_rows () =
  let sys = general () in
  let fir = Kernels.find "fir" in
  let scheds = ok_schedules sys "fir" in
  let model = Models.trained 21 in
  let marshalled v =
    Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
  in
  let row name digest f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    let r = f () in
    let words = Gc.minor_words () -. w0 in
    Printf.sprintf "path/%s\t%s\t%.0f" name (digest r) words
  in
  let sys4 = Sys_adg.with_system sys { sys.system with System.dram_channels = 4 } in
  (* the request path's byte work: the wire CRC over 4 KiB, the content
     hash a cache miss pays, and fir's request and response frames *)
  let bytes4k = String.init 4096 (fun i -> Char.chr ((i * 131 + 7) land 0xFF)) in
  let stencil = Compile.compile (Kernels.find "stencil-3d") in
  let gen =
    Compile.compile
      (Overgen_frontend.Gen.kernel ~cov:(Overgen_frontend.Gen.Cov.create ())
         (Overgen_util.Rng.of_string "fuzz:11:0"))
  in
  let module Wire = Overgen_net.Wire in
  let src = C_source.emit fir in
  let frames () =
    ( Wire.frame
        (Wire.encode_req
           (Wire.Compile
              { id = 7; user = "u"; tenant = "t"; overlay = "general";
                payload = Wire.Source src; tuned = false; trace = "";
                parent_span = 0 })),
      Wire.frame
        (Wire.encode_resp
           (Wire.Result
              { id = 7; outcome = Ok scheds; cache_hit = true; service_s = 0.0;
                shard = 0 })) )
  in
  let frames_digest (req, resp) =
    Printf.sprintf "req=%d resp=%d %s" (String.length req) (String.length resp)
      (Digest.to_hex (Digest.string (req ^ resp)))
  in
  (* one Deterministic dispatch of fir's source: the first call misses
     and fills the cache, the measured one hits *)
  let module Service = Overgen_service.Service in
  let hit =
    let registry = Overgen_service.Registry.create () in
    (match Overgen.on_design ~model sys [ fir ] with
    | Error e -> Alcotest.failf "fir overlay: %s" e
    | Ok o -> (
      match Overgen_service.Registry.register registry ~name:"general" o with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "register: %s" e));
    let svc = Service.create ~caching:true registry in
    let last = ref None in
    let job =
      {
        Service.req =
          { Service.id = 0; user = "u"; tenant = ""; overlay = "general";
            payload = Service.Source src; tuned = false; trace = "";
            deadline_s = None };
        admitted_at = 0.0;
        k = (fun r -> last := Some r);
      }
    in
    fun () ->
      Service.dispatch svc [ job ];
      Option.get !last
  in
  (* the DSE iteration's tail: the usage summary of the DSP suite's
     schedules, and tile resources across one move and its revert (a PE's
     delay FIFO retuned and one link removed) with a memo warmed on both *)
  let dsp_scheds =
    List.concat_map (fun (k : Ir.kernel) -> ok_schedules sys k.name)
      (Kernels.of_suite Suite.Dsp)
  in
  let text_digest u = Digest.to_hex (Digest.string (Mutate.usage_text u)) in
  let step =
    let base = sys.adg in
    let moved =
      match (Adg.pes base, Adg.edges base) with
      | (pe, p) :: _, (a, b) :: _ ->
        Adg.remove_edge
          (Adg.set_comp base pe (Comp.Pe { p with delay_fifo = p.delay_fifo + 4 }))
          a b
      | _ -> Alcotest.fail "general overlay without a PE or a link"
    in
    let memo = Overgen_mlp.Predict.memo () in
    fun () ->
      let m = Overgen_mlp.Predict.predict_accel ~memo model moved in
      (m, Overgen_mlp.Predict.predict_accel ~memo model base)
  in
  let hit_digest (r : Service.response) =
    Printf.sprintf "hit=%b %s" r.cache_hit
      (schedule_digest (Result.map_error Service.error_to_string r.result))
  in
  [
    row "autodse-fir" marshalled (fun () -> Overgen_hls.Hls.autodse ~tuned:false fir);
    row "synth-oracle" marshalled (fun () -> Overgen_fpga.Oracle.synth_full sys);
    row "mlp-predict-accel" marshalled (fun () ->
        Overgen_mlp.Predict.predict_accel model sys.adg);
    row "repair-fir" schedule_digest (fun () -> Spatial.repair sys scheds);
    row "perf-objective" (Printf.sprintf "%h") (fun () ->
        Overgen_perf.Perf.objective sys [ scheds ]);
    row "sim-4ch-fir" marshalled (fun () -> Overgen_sim.Sim.run sys4 scheds);
    row "crc32-4k" (Printf.sprintf "%08x") (fun () -> Overgen_store.Crc32.sub bytes4k 0 4096);
    row "hash-compiled-stencil-3d" Fun.id (fun () -> Compile.hash_compiled stencil);
    row "hash-compiled-gen" Fun.id (fun () -> Compile.hash_compiled gen);
    row "wire-fir" frames_digest frames;
    row "service-hit" hit_digest hit;
    row "usage-of-dsp" text_digest (fun () -> Mutate.usage_of dsp_scheds);
    row "tile-resources-step" marshalled step;
  ]

(* Scheduler output and work pinned across commits: per kernel on the
   general overlay and on the DSE's 3x4 seed mesh, the schedule digest
   (or error), the variants tried, the undo-log entries popped, the minor
   words of a warm schedule_app with Obs off, the minor words of the
   kernel's Compile.compile, the minor words of a warm Sim.run of the
   schedules ('-' where the kernel does not schedule), and the route
   searches and route-search heap pops of a warm schedule_app; then the
   [path_rows].  The word columns
   depend on the compiler, hence the OCaml version stamp.  Regenerate
   with OVERGEN_WORK_GOLDEN_OUT=<file> dune test, then copy the file over
   test/work-golden.tsv — only when a change to compiler, scheduler or
   simulator output or allocation is intended. *)
let test_work_golden_table () =
  let general = general () and mesh = seed_mesh_3x4 () in
  (* accumulate and vecmax share links on the general overlay, so the
     table pins the router's owner-count cost *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " shares a link") 2
        (List.fold_left
           (fun acc (s : Schedule.t) -> max acc s.max_link_share)
           1 (ok_schedules general name)))
    [ "accumulate"; "vecmax" ];
  let rows sys label =
    List.map (work_row sys label) (Kernels.all @ [ Dot_reg.kernel ])
  in
  Golden.check ~stamp:("ocaml " ^ Sys.ocaml_version) ~file:"work-golden.tsv"
    ~regen_var:"OVERGEN_WORK_GOLDEN_OUT"
    ~header:
      "# overlay/kernel\tschedule digest or error\tvariants tried\tundo \
       entries popped\twarm minor words\tcompile minor words\twarm sim \
       minor words\troutes searched\theap pops\n\
       # path/name\tresult digest\twarm minor words\n"
    (rows general "general" @ rows mesh "mesh3x4" @ path_rows ())

(* On the DSE's largest seed mesh (5x8) fir's first winning variant is
   rolled back and replayed, and its capture holds more than 256 cells.
   Building that redo array from a young first cell made the runtime
   empty the minor heap (a stop-the-world collection on two domains) on
   every such call; a warm call allocates far less than the minor heap,
   so it must now run without one. *)
let test_capture_no_minor_gc () =
  let caps =
    Overgen_dse.Dse.caps_pool (List.map (Compile.compile ~tuned:false) Kernels.all)
  in
  let sys = mesh ~caps ~rows:5 ~cols:8 ~sw_width_bits:256 in
  let c = Compile.compile ~tuned:false (Kernels.find "fir") in
  let popped = counter "overgen_scheduler_rollback_entries_total" in
  Obs.enable ();
  let p0 = Obs.Metrics.counter_value popped in
  let r = Fun.protect ~finally:Obs.disable (fun () -> Spatial.schedule_app sys c) in
  Alcotest.(check bool) "schedules" true (Result.is_ok r);
  Alcotest.(check bool) "more than 256 undo entries rolled back" true
    (Obs.Metrics.counter_value popped - p0 > 256);
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).minor_collections in
  ignore (Spatial.schedule_app sys c);
  Alcotest.(check int) "minor collections" 0 ((Gc.quick_stat ()).minor_collections - m0)

(* ---------- the pruned variant search against an unpruned one ---------- *)

(* schedule_app without its variant pruning, over the exported context
   operations: every variant of a region is scheduled and scored widest
   first, the strictly best score wins (ties to the wider), and the winner
   is scheduled again so the next region sees its claims.  With no fit,
   the widest variant's error. *)
let reference_schedule_app sys (c : Compile.compiled) =
  let ctx = Spatial.fresh_ctx sys in
  let region variants =
    let saved = Spatial.snapshot ctx in
    let best, first_err =
      List.fold_left
        (fun (best, first_err) (v : Compile.variant) ->
          let r = Spatial.schedule_variant ctx v in
          Spatial.restore ctx saved;
          match r with
          | Ok s -> (
            let score = float_of_int v.unroll /. float_of_int (max 1 s.ii) in
            match best with
            | Some (bs, _) when not (score > bs) -> (best, first_err)
            | _ -> (Some (score, v), first_err))
          | Error e -> (best, if first_err = None then Some e else first_err))
        (None, None)
        (List.sort
           (fun (a : Compile.variant) b -> compare b.unroll a.unroll)
           variants)
    in
    match (best, first_err) with
    | Some (_, v), _ -> Spatial.schedule_variant ctx v
    | None, Some e -> Error e
    | None, None -> Error "region has no variants"
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | variants :: rest -> (
      match region variants with
      | Ok s -> all (s :: acc) rest
      | Error e -> Error (Printf.sprintf "%s: %s" c.kname e))
  in
  all [] c.per_region

(* A digest, an error, or the exception a run raised. *)
let outcome f = try schedule_digest (f ()) with e -> "raised " ^ Printexc.to_string e

(* [schedule_app] skips variants that cannot place or cannot beat the best
   score so far; neither skip may change a schedule or an error.  Checked
   against the reference on the general overlay, the DSE's seed mesh and
   24 designs reached by seeded mutation chains from larger meshes, where
   wide variants place but narrow ones can win on link sharing, so both
   skips happen and some later variants still win. *)
let test_pruned_search_matches_reference () =
  let general = general () and seed_mesh = seed_mesh_3x4 () in
  let compiled = List.map (Compile.compile ~tuned:false) Kernels.all in
  let caps_pool = Overgen_dse.Dse.caps_pool compiled in
  let bases =
    [|
      mesh ~caps:caps_pool ~rows:4 ~cols:4 ~sw_width_bits:64;
      mesh ~caps:caps_pool ~rows:5 ~cols:5 ~sw_width_bits:128;
      mesh ~caps:caps_pool ~rows:4 ~cols:6 ~sw_width_bits:64;
      mesh ~caps:caps_pool ~rows:6 ~cols:6 ~sw_width_bits:64;
    |]
  in
  let mutated (base : Sys_adg.t) seed =
    let rng = Rng.create seed in
    let usage = Mutate.usage_of [] in
    let rec chain adg n =
      if n = 0 then Sys_adg.with_adg base adg
      else
        let adg, _ =
          Mutate.propose rng ~preserve:(seed mod 2 = 0) ~caps_pool adg usage
        in
        chain adg (n - 1)
    in
    chain base.adg (4 + (seed mod 5))
  in
  let designs =
    [ ("general", general); ("mesh3x4", seed_mesh) ]
    @ List.init 24 (fun i ->
          (Printf.sprintf "mutant%d" i, mutated bases.(i mod 4) (100 + i)))
  in
  let pruned = counter "overgen_scheduler_variants_pruned_total" in
  let p0 = Obs.Metrics.counter_value pruned in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (label, sys) ->
          List.iter
            (fun (c : Compile.compiled) ->
              Alcotest.(check string)
                (label ^ "/" ^ c.kname)
                (outcome (fun () -> reference_schedule_app sys c))
                (outcome (fun () -> Spatial.schedule_app sys c)))
            compiled)
        designs);
  Alcotest.(check bool) "variants were pruned" true
    (Obs.Metrics.counter_value pruned > p0);
  Alcotest.(check string) "every stencil-2d variant fails on the seed mesh"
    "error: stencil-2d: no free PE for add.i64"
    (outcome (fun () ->
         Spatial.schedule_app seed_mesh
           (Compile.compile ~tuned:false (Kernels.find "stencil-2d"))))

(* Two domains scheduling the suite at once: each domain builds its own
   topology cache, and all owner state lives in the per-call context, so
   every digest equals the single-domain run's and the (atomic) counters
   see exactly twice the single run's variants, tried and pruned. *)
let test_scheduler_on_two_domains () =
  let overlays = [ general (); seed_mesh_3x4 () ] in
  let compiled = List.map (Compile.compile ~tuned:false) Kernels.all in
  let digests () =
    List.concat_map
      (fun sys ->
        List.map (fun c -> schedule_digest (Spatial.schedule_app sys c)) compiled)
      overlays
  in
  let tried = counter "overgen_scheduler_variants_tried_total"
  and pruned = counter "overgen_scheduler_variants_pruned_total" in
  let counted f =
    let t0 = Obs.Metrics.counter_value tried
    and p0 = Obs.Metrics.counter_value pruned in
    Obs.enable ();
    let r = Fun.protect ~finally:Obs.disable f in
    (r, Obs.Metrics.counter_value tried - t0, Obs.Metrics.counter_value pruned - p0)
  in
  let seq, seq_tried, seq_pruned = counted digests in
  let (here, there), par_tried, par_pruned =
    counted (fun () ->
        let d = Domain.spawn digests in
        let here = digests () in
        (here, Domain.join d))
  in
  Alcotest.(check (list string)) "spawned domain" seq there;
  Alcotest.(check (list string)) "calling domain" seq here;
  Alcotest.(check int) "variants counted" (2 * seq_tried) par_tried;
  Alcotest.(check bool) "variants pruned" true (seq_pruned > 0);
  Alcotest.(check int) "pruned variants counted" (2 * seq_pruned) par_pruned

(* A mutation that removes a port the schedule uses: repair cannot keep
   the binding, the incremental tier re-places just that port (an input
   and then an output port) on another free port and re-routes. *)
let test_incremental_replaces_port () =
  let sys = general () in
  let compiled = Compile.compile ~tuned:false (Kernels.find "mm") in
  let prior =
    match Spatial.schedule_app sys compiled with
    | Ok s -> s
    | Error e -> Alcotest.failf "schedule failed: %s" e
  in
  let s = List.hd prior in
  List.iter
    (fun input ->
      let dfg_port, hw =
        List.find
          (fun (p, _) ->
            match (Dfg.node s.variant.dfg p).kind with
            | Dfg.Input _ -> input
            | Dfg.Output _ -> not input
            | _ -> false)
          (Schedule.Imap.bindings s.port_map)
      in
      let sys' = Sys_adg.with_adg sys (Adg.remove_node sys.adg hw) in
      match Spatial.reschedule sys' compiled ~prior with
      | Error e -> Alcotest.failf "reschedule failed: %s" e
      | Ok (scheds, outcome) ->
        Alcotest.(check bool) "incremental tier used" true
          (outcome = Spatial.Incremental);
        let s' = List.hd scheds in
        Alcotest.(check bool) "the port moved" true
          (Schedule.Imap.find dfg_port s'.port_map <> hw);
        List.iter
          (fun sc ->
            match Schedule.validate sc sys' with
            | Ok () -> ()
            | Error e -> Alcotest.failf "rescheduled schedule invalid: %s" e)
          scheds)
    [ true; false ]

let tests =
  [
    Alcotest.test_case "all kernels schedule on general" `Quick
      test_all_kernels_schedule_on_general;
    Alcotest.test_case "double restore" `Quick test_double_restore;
    Alcotest.test_case "schedules validate" `Quick test_schedules_validate;
    Alcotest.test_case "work golden table" `Quick test_work_golden_table;
    Alcotest.test_case "capture forces no minor collection" `Quick
      test_capture_no_minor_gc;
    Alcotest.test_case "scheduler on two domains" `Quick test_scheduler_on_two_domains;
    Alcotest.test_case "pruned variant search matches the unpruned one" `Quick
      test_pruned_search_matches_reference;
    Alcotest.test_case "dedicated PEs" `Quick test_dedicated_pes;
    Alcotest.test_case "ports not shared" `Quick test_ports_not_shared_across_regions;
    Alcotest.test_case "fir recurrence engine" `Quick test_fir_uses_recurrence_engine;
    Alcotest.test_case "reduce on the register engine" `Quick
      test_reduce_uses_register_engine;
    Alcotest.test_case "crs indirect engine" `Quick test_indirect_arrays_on_indirect_engine;
    Alcotest.test_case "route endpoints" `Quick test_routes_start_and_end_correctly;
    Alcotest.test_case "validate rejects a cut route" `Quick test_validate_rejects_cut_route;
    Alcotest.test_case "validate rejects each broken rule" `Quick
      test_validate_rejects_each_rule;
    Alcotest.test_case "ii sanity" `Quick test_ii_at_least_one;
    Alcotest.test_case "repair fast path" `Quick test_repair_after_harmless_change;
    Alcotest.test_case "repair reroutes" `Quick test_repair_reroutes_after_switch_removal;
    Alcotest.test_case "repair detects lost caps" `Quick test_repair_fails_when_pe_capability_lost;
    Alcotest.test_case "repair fails on a removed placed PE" `Quick
      test_repair_fails_when_placed_pe_removed;
    Alcotest.test_case "engine-binding breaks fall through to full" `Quick
      test_engine_break_falls_through_to_full;
    Alcotest.test_case "relax on small fabric" `Quick test_relaxation_on_small_fabric;
    Alcotest.test_case "ii covers port width" `Quick test_compute_ii_respects_port_width;
    QCheck_alcotest.to_alcotest prop_schedule_deterministic;
    QCheck_alcotest.to_alcotest prop_undo_log_matches_oracle;
    QCheck_alcotest.to_alcotest prop_capture_replay_matches_schedule;
    Alcotest.test_case "stale snapshot raises" `Quick test_stale_snapshot_raises;
    Alcotest.test_case "rollback counter / free no-op restore" `Quick
      test_rollback_counter_and_free_noop;
    QCheck_alcotest.to_alcotest prop_reschedule_matches_legacy;
    Alcotest.test_case "incremental re-places only broken" `Quick
      test_incremental_replaces_only_broken;
    Alcotest.test_case "incremental re-places a removed port" `Quick
      test_incremental_replaces_port;
  ]
