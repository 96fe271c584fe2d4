(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VIII) and runs the serving-stack scenarios.  Run with
   no argument for the full set, or pass scenario names; arguments after a
   name are handed to that scenario, e.g.
   `main.exe dse --islands 2,4 --iterations 200`.  `main.exe list` prints
   the registry.

   Every scenario prints its results and fails (raises, or exits 1) when a
   contract it checks is broken; the smoke aliases in the root dune file
   run them under `dune build @check`. *)

type scenario = {
  name : string;
  synopsis : string;  (* one line, shown by `main.exe list` *)
  run : string list -> unit;  (* the arguments after the scenario's name *)
}

let sc name synopsis run = { name; synopsis; run }

(* Scenarios that take no arguments. *)
let plain name synopsis f = sc name synopsis (fun (_ : string list) -> f ())

let scenarios =
  [
    plain "table1" "Table I: framework vs paper component inventory" Tables.table1;
    plain "table2" "Table II: per-kernel compile statistics" Tables.table2;
    plain "table3" "Table III: generated overlay architectures" Tables.table3;
    plain "table4" "Table IV: FPGA resource/frequency summary" Tables.table4;
    plain "fig13" "Figure 13: per-kernel speedup vs soft cores" Figures.fig13;
    plain "fig14" "Figure 14: compile time vs HLS" Figures.fig14;
    plain "fig15" "Figure 15: modeled DSE trajectory" Figures.fig15;
    plain "fig16" "Figure 16: predicted vs synthesized resources" Figures.fig16;
    plain "fig17" "Figure 17: schedule repair under mutation" Figures2.fig17;
    plain "fig18" "Figure 18: cross-suite generality matrix" Figures2.fig18;
    plain "fig19" "Figure 19: DRAM-channel sensitivity" Figures2.fig19;
    plain "fig20" "Figure 20: schedule-preserving DSE ablation" Figures2.fig20;
    plain "ablation" "feature ablation sweep" Ablation.run;
    plain "extensions" "beyond-paper extension experiments" Extensions.run;
    plain "service" "compile service under multi-user traffic" Service_bench.run;
    plain "store" "durable artifact store: log, restart, DSE resume"
      Store_bench.run;
    plain "fault" "service replay under seeded fault injection" Fault_bench.run;
    plain "obs" "observability overhead of the gated primitives" Obs_bench.run;
    sc "dse" "island-model DSE scaling sweep" Dse_bench.run;
    sc "net" "sharded network tier under open-loop socket load" Net_bench.run;
    plain "frontend" "source frontend parse throughput + fuzz pipeline"
      Frontend_bench.run;
    plain "fleet" "multi-tenant weighted-fair admission + fleet manager"
      Fleet_bench.run;
  ]

(* Reachable by name but excluded from the no-argument full run:
   `net-shard` is the child-process entry the net bench spawns — it
   serves until SIGTERM and never returns on its own. *)
let hidden =
  [
    sc "net-shard" "(internal) net-bench shard child process" (fun args ->
        (* serves until SIGTERM; [shard] exits the process itself *)
        Net_bench.shard args);
  ]

let list_scenarios () =
  Printf.printf "scenarios (main.exe <name> [args], no argument runs all):\n";
  List.iter
    (fun s -> Printf.printf "  %-12s %s\n" s.name s.synopsis)
    scenarios

(* Group the command line into (scenario, its-arguments) runs: each
   scenario name starts a run and collects the arguments up to the next
   scenario name. *)
let group args =
  let all = scenarios @ hidden in
  let runs =
    List.fold_left
      (fun runs arg ->
        match List.find_opt (fun s -> s.name = arg) all with
        | Some s -> (s, ref []) :: runs
        | None -> (
          match runs with
          | (_, extra) :: _ ->
            extra := arg :: !extra;
            runs
          | [] ->
            Printf.eprintf "unknown scenario %s; available: %s\n" arg
              (String.concat " " (List.map (fun s -> s.name) scenarios));
            exit 1))
      [] args
  in
  List.rev_map (fun (s, extra) -> (s, List.rev !extra)) runs

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "list" :: _ -> list_scenarios ()
  | _ ->
    let to_run =
      match args with
      | [] -> List.map (fun s -> (s, [])) scenarios
      | args -> group args
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (s, extra) ->
        let t = Unix.gettimeofday () in
        s.run extra;
        Printf.printf "[%s done in %.1fs]\n%!" s.name
          (Unix.gettimeofday () -. t))
      to_run;
    Printf.printf "\nAll scenarios completed in %.1fs\n"
      (Unix.gettimeofday () -. t0)
