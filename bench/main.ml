(* Bechamel micro-benchmarks: one Test.make per table/figure of the
   paper, each regenerating it at a reduced workload scale so the
   end-to-end cost of the experiment pipeline (compile + simulate +
   report) is measured, plus the simulator's hot primitives.

   The full-scale reproduction is `stx_repro all`, a traced reference run
   is `stx_run --trace FILE [--policy LABEL]`, and the simulator-core
   events/sec series is `stx_repro bench`. *)

open Bechamel
open Toolkit

let micro_scale = 0.05

let ctx () = Stx_harness.Exp.create ~seed:1 ~scale:micro_scale ~threads:8 ()

(* fresh context per invocation: memoization must not turn timing into a
   no-op *)
let table_tests =
  [
    Test.make ~name:"table1" (Staged.stage (fun () -> ignore (Stx_harness.Reports.table1 (ctx ()))));
    Test.make ~name:"table2" (Staged.stage (fun () -> ignore (Stx_harness.Reports.table2 ())));
    Test.make ~name:"table3" (Staged.stage (fun () -> ignore (Stx_harness.Reports.table3 (ctx ()))));
    Test.make ~name:"table4" (Staged.stage (fun () -> ignore (Stx_harness.Reports.table4 (ctx ()))));
    Test.make ~name:"fig7" (Staged.stage (fun () -> ignore (Stx_harness.Reports.fig7 (ctx ()))));
    Test.make ~name:"fig8" (Staged.stage (fun () -> ignore (Stx_harness.Reports.fig8 (ctx ()))));
  ]

let micro_tests =
  let open Stx_machine in
  let mem = Memory.create () in
  let alloc = Alloc.create ~words_per_line:8 mem in
  let cfg = Config.with_cores 4 Config.default in
  let htm = Stx_htm.Htm.create cfg mem alloc in
  let hier = Hierarchy.create cfg in
  let rng = Stx_util.Rng.create 7 in
  let counter = ref 0 in
  [
    Test.make ~name:"htm tx (begin+ld+st+commit)"
      (Staged.stage (fun () ->
           incr counter;
           let addr = 64 + (!counter mod 64 * 8) in
           Stx_htm.Htm.tx_begin htm ~core:0;
           ignore (Stx_htm.Htm.tx_load htm ~core:0 ~addr ~pc:1);
           Stx_htm.Htm.tx_store htm ~core:0 ~addr ~value:1 ~pc:2;
           ignore (Stx_htm.Htm.tx_commit htm ~core:0)));
    Test.make ~name:"cache hierarchy access"
      (Staged.stage (fun () ->
           incr counter;
           ignore (Hierarchy.access hier ~core:0 ~line:(!counter mod 4096) ~write:false)));
    Test.make ~name:"rng next" (Staged.stage (fun () -> ignore (Stx_util.Rng.next rng)));
  ]

let () =
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~kde:None () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let report name tests =
    Printf.printf "\n-- bechamel: %s --\n%!" name;
    let grouped = Test.make_grouped ~name tests in
    let results = analyze (benchmark grouped) in
    Hashtbl.iter
      (fun label result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-42s %12.0f ns/run\n" label est
        | _ -> Printf.printf "  %-42s (no estimate)\n" label)
      results
  in
  report "experiment pipeline (micro scale)" table_tests;
  report "simulator primitives" micro_tests
