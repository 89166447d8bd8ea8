(* The repository benchmark driver.

     main.exe --workload sim-core|observed|serve --seed N --seconds S --trace 0|1

   Runs whole passes of one workload back to back until the next pass would
   overrun S seconds, checks every cell of every pass, and prints the
   medians over passes; host times are in reference seconds (Calib). The
   last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end set, measured with no spans recorded; with
   --trace 1 they are the per-layer set, taken from traced passes that
   alternate with untraced ones (the difference in wall time is the
   tracing overhead). See README.md for what each workload is for. *)

module Stats = Stx_sim.Stats
module Hist = Stx_metrics.Hist
module Mode = Stx_core.Mode

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-core|observed|serve --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let get name =
    let rec go i =
      if i + 1 >= Array.length Sys.argv then usage ()
      else if Sys.argv.(i) = name then Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let int name = match int_of_string_opt (get name) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload [ "sim-core"; "observed"; "serve" ]) then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, int "--seed", seconds, trace)

(* ---- metric definitions: name, unit; the order is the print order ---- *)

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("sim_minst_per_s", "Minst/s"); ("ktx_per_s", "ktx/s");
    ("peak_heap_mb", "MB"); ("sim_kcyc_htm", "kcycles"); ("sim_kcyc_staggered", "kcycles") ]

let self_layers =
  [ "bench"; "compiler"; "sim"; "serve"; "trace"; "metrics"; "telemetry"; "harness"; "runner" ]

let per_layer =
  [ ("compiler.compile_ms", "ms"); ("compiler.anchors", "count"); ("sim.run_s", "s");
    ("sim.ns_per_inst", "ns"); ("sim.insts", "count"); ("sim.tx_insts", "count");
    ("sim.useful_tx_inst_ratio", "ratio"); ("sim.minor_words_per_inst", "words");
    ("sim.major_gcs", "count"); ("machine.access_ns", "ns"); ("htm.attempts", "count");
    ("htm.commit_ratio", "ratio"); ("htm.conflict_aborts", "count");
    ("htm.stm_conflict_aborts", "count");
    ("htm.irrevocable_entries", "count"); ("htm.useful_kcyc", "kcycles");
    ("htm.wasted_kcyc", "kcycles"); ("htm.tx_ns", "ns");
    ("htm.aborts_per_commit_staggered", "ratio"); ("core.alps_executed", "count");
    ("core.alp_fire_ratio", "ratio"); ("core.lock_acquires", "count");
    ("core.lock_wait_kcyc", "kcycles");
    ("core.backoff_kcyc", "kcycles"); ("stm.commits", "count"); ("stm.commit_ratio", "ratio");
    ("stm.validation_kcyc", "kcycles"); ("trace.events", "count");
    ("trace.handler_ns_per_event", "ns"); ("metrics.handler_ns_per_event", "ns");
    ("telemetry.handler_ns_per_event", "ns"); ("trace.check_ms", "ms");
    ("trace.attribution_ms", "ms"); ("metrics.check_ms", "ms"); ("metrics.replay_ms", "ms");
    ("telemetry.replay_ms", "ms"); ("harness.render_ms", "ms"); ("harness.html_kb", "KB");
    ("runner.store_save_ms", "ms"); ("runner.store_load_ms", "ms"); ("runner.store_kb", "KB");
    ("serve.run_s", "s"); ("serve.requests", "count"); ("serve.arrival_ms", "ms");
    ("serve.key_sample_ns", "ns"); ("serve.wait_p999_kcyc", "kcycles");
    ("serve.service_p999_kcyc", "kcycles"); ("serve.sojourn_mean_kcyc", "kcycles");
    ("serve.sojourn_p50_kcyc", "kcycles"); ("serve.sojourn_p999_kcyc", "kcycles");
    ("serve.sojourn_samples", "count"); ("serve.queue_depth_max", "count");
    ("serve.occupancy", "ratio"); ("serve.saturated_cells", "count");
    ("serve.slo_rate_htm", "req/kcycle"); ("serve.slo_rate_staggered", "req/kcycle");
    ("util.rng_ns", "ns"); ("bench.host_speed", "ratio"); ("bench.trace_overhead_s", "s") ]
  @ List.map (fun l -> (l ^ ".self_ms", "ms")) self_layers

(* p99.9 sojourn limit of the serve SLO, in cycles *)
let slo_cycles = 20_000

(* ---- per-pass values ---- *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let geomean = function
  | [] -> 0.0
  | l -> exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let kcyc_of_mode cells mode =
  geomean
    (List.filter_map
       (fun (c : Cells.cell) ->
         if c.mode = mode then Some (float_of_int c.stats.Stats.total_cycles /. 1000.0) else None)
       cells)

(* The serve cell at the reference rate under Staggered. *)
let reference cells =
  List.find_map
    (fun (c : Cells.cell) ->
      match c.serve with
      | Some s when s.rate = Cells.reference_rate && c.mode = Mode.Staggered_hw -> Some s
      | _ -> None)
    cells

let slo_rate cells mode =
  List.fold_left
    (fun best (c : Cells.cell) ->
      match c.serve with
      | Some s
        when c.mode = mode && (not s.saturated) && Hist.quantile s.sojourn 0.999 <= slo_cycles ->
        Float.max best s.rate
      | _ -> best)
    0.0 cells

let values sp (gc : Cells.gc) (cells : Cells.cell list) =
  (* Every host time of the pass in reference ns: scaled by the speed of
     the host as the reference suite measured it during the pass. *)
  let speed = Calib.factor ~ns:(Spans.total_ns sp "calib.run") in
  let ns name = float_of_int (Spans.total_ns sp name) *. speed in
  let ms name = ns name /. 1e6 in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  let st f = sum (fun (c : Cells.cell) -> f c.stats) cells in
  let insts = st (fun s -> s.Stats.insts) in
  let sim_ns = ns "sim.run" +. ns "serve.run" in
  let stag = List.filter (fun (c : Cells.cell) -> c.mode = Mode.Staggered_hw) cells in
  let events = sum (fun (c : Cells.cell) -> c.events) cells in
  let hw_commits = st (fun s -> s.commits - s.stm_commits - s.irrevocable_entries) in
  let hw_attempts = hw_commits + st (fun s -> s.aborts - s.stm_aborts) in
  let kcyc f = float_of_int (st f) /. 1000.0 in
  let serve_ref f = match reference cells with Some s -> f s | None -> 0.0 in
  let kq h p = float_of_int (Hist.quantile h p) /. 1000.0 in
  let self =
    let tbl = Spans.self_ns sp in
    List.map
      (fun l ->
        ( l ^ ".self_ms",
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl l)) *. speed /. 1e6 ))
      self_layers
  in
  [ ("wall_s", (ns "bench.pass" -. ns "calib.run") /. 1e9);
    ("setup_s", ns "bench.setup" /. 1e9);
    ("sim_minst_per_s", float_of_int insts /. 1e6 /. (sim_ns /. 1e9));
    ("ktx_per_s", float_of_int (st (fun s -> s.commits)) /. 1e3 /. (sim_ns /. 1e9));
    ("sim_kcyc_htm", kcyc_of_mode cells Mode.Baseline);
    ("sim_kcyc_staggered", kcyc_of_mode cells Mode.Staggered_hw);
    ( "htm.aborts_per_commit_staggered",
      ratio
        (sum (fun (c : Cells.cell) -> c.stats.aborts) stag)
        (sum (fun (c : Cells.cell) -> c.stats.commits) stag) );
    ("bench.host_speed", speed);
    ("compiler.compile_ms", ms "compiler.spec");
    ("compiler.anchors", float_of_int (sum (fun (c : Cells.cell) -> c.anchors) cells));
    ("sim.run_s", sim_ns /. 1e9);
    ("sim.ns_per_inst", per sim_ns insts);
    ("sim.insts", float_of_int insts);
    ("sim.tx_insts", float_of_int (st (fun s -> s.tx_insts)));
    ("sim.useful_tx_inst_ratio", ratio (st (fun s -> s.committed_tx_insts)) (st (fun s -> s.tx_insts)));
    ("sim.minor_words_per_inst", gc.minor_words /. float_of_int (max 1 insts));
    ("sim.major_gcs", float_of_int gc.major_gcs);
    ("htm.attempts", float_of_int hw_attempts);
    ("htm.commit_ratio", ratio hw_commits hw_attempts);
    ("htm.conflict_aborts", float_of_int (st (fun s -> s.conflict_aborts)));
    ("htm.stm_conflict_aborts", float_of_int (st (fun s -> s.stm_conflict_aborts)));
    ("htm.irrevocable_entries", float_of_int (st (fun s -> s.irrevocable_entries)));
    ("htm.useful_kcyc", kcyc (fun s -> s.useful_cycles));
    ("htm.wasted_kcyc", kcyc (fun s -> s.wasted_cycles));
    ("core.alps_executed", float_of_int (st (fun s -> s.alps_executed)));
    ("core.alp_fire_ratio", ratio (st (fun s -> s.alps_lock_attempts)) (st (fun s -> s.alps_executed)));
    ("core.lock_acquires", float_of_int (st (fun s -> s.lock_acquires)));
    ("core.lock_wait_kcyc", kcyc (fun s -> s.lock_wait_cycles));
    ("core.backoff_kcyc", kcyc (fun s -> s.backoff_cycles));
    ("stm.commits", float_of_int (st (fun s -> s.stm_commits)));
    ("stm.commit_ratio", ratio (st (fun s -> s.stm_commits)) (st (fun s -> s.stm_commits + s.stm_aborts)));
    ("stm.validation_kcyc", kcyc (fun s -> s.stm_validation_cycles));
    ("trace.events", float_of_int events);
    ("trace.handler_ns_per_event", per (ns "trace.handler") events);
    ("metrics.handler_ns_per_event", per (ns "metrics.handler") events);
    ("telemetry.handler_ns_per_event", per (ns "telemetry.handler") events);
    ("trace.check_ms", ms "trace.check");
    ("trace.attribution_ms", ms "trace.attribution");
    ("metrics.check_ms", ms "metrics.check");
    ("metrics.replay_ms", ms "metrics.replay");
    ("telemetry.replay_ms", ms "telemetry.replay");
    ("harness.render_ms", ms "harness.render");
    ("harness.html_kb", float_of_int (sum (fun (c : Cells.cell) -> c.html_bytes) cells) /. 1024.0);
    ("runner.store_save_ms", ms "runner.store_save");
    ("runner.store_load_ms", ms "runner.store_load");
    ("runner.store_kb", float_of_int (sum (fun (c : Cells.cell) -> c.store_bytes) cells) /. 1024.0);
    ("serve.run_s", ns "serve.run" /. 1e9);
    ( "serve.requests",
      float_of_int
        (sum (fun (c : Cells.cell) -> match c.serve with Some s -> s.requests | None -> 0) cells) );
    ("serve.arrival_ms", ms "serve.arrivals");
    ("serve.wait_p999_kcyc", serve_ref (fun s -> kq s.wait 0.999));
    ("serve.service_p999_kcyc", serve_ref (fun s -> kq s.service 0.999));
    ( "serve.sojourn_mean_kcyc",
      serve_ref (fun s -> ratio (Hist.sum s.sojourn) (Hist.count s.sojourn) /. 1000.0) );
    ("serve.sojourn_p50_kcyc", serve_ref (fun s -> kq s.sojourn 0.5));
    ("serve.sojourn_p999_kcyc", serve_ref (fun s -> kq s.sojourn 0.999));
    ("serve.sojourn_samples", serve_ref (fun s -> float_of_int (Hist.count s.sojourn)));
    ("serve.queue_depth_max", serve_ref (fun s -> float_of_int s.queue_max));
    ("serve.occupancy", serve_ref (fun s -> s.occupancy));
    ( "serve.saturated_cells",
      float_of_int
        (sum
           (fun (c : Cells.cell) ->
             match c.serve with Some s when s.saturated -> 1 | _ -> 0)
           cells) );
    ("serve.slo_rate_htm", slo_rate cells Mode.Baseline);
    ("serve.slo_rate_staggered", slo_rate cells Mode.Staggered_hw) ]
  @ self

(* ---- the run ---- *)

type pass = { traced : bool; values : (string * float) list }

let median l = Micro.median (Array.of_list l)

let () =
  let workload, seed, seconds, trace = args () in
  let out_dir = ".bench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let store = lazy (Stx_runner.Store.create ~dir:(Filename.concat out_dir "store") ()) in
  let run_pass =
    match workload with
    | "sim-core" -> Cells.sim_core
    | "observed" -> fun sp gc ~seed -> Cells.observed ~store:(Lazy.force store) sp gc ~seed
    | _ -> Cells.serve
  in
  let t_start = Spans.now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  let micro = if trace then Micro.all () else [] in
  let plain = Spans.create ~traced:false and traced = Spans.create ~traced:true in
  let passes = ref [] and attempted = ref 0 and failures = ref [] in
  let reference = Hashtbl.create 32 and summary = Hashtbl.create 32 and order = ref [] in
  let fail lbl msg = failures := (lbl ^ ": " ^ msg) :: !failures in
  let rec loop i last_ns =
    let now = Spans.now_ns () in
    let need = if trace then 2 else 1 in
    if i < need || now + last_ns <= deadline then begin
      let is_traced = trace && i mod 2 = 1 in
      let sp = if is_traced then traced else plain in
      Spans.reset sp;
      Calib.reset ();
      let gc = { Cells.minor_words = 0.0; major_gcs = 0 } in
      let results = Spans.time sp "bench.pass" (fun () -> run_pass sp gc ~seed) in
      let ok =
        List.filter_map
          (fun (lbl, r) ->
            incr attempted;
            match r with
            | Error e ->
              fail lbl e;
              None
            | Ok (c : Cells.cell) -> (
              match Hashtbl.find_opt reference lbl with
              | None ->
                Hashtbl.add reference lbl c.digest;
                Hashtbl.add summary lbl
                  (Printf.sprintf "%d kcycles, %d commits, %d aborts"
                     (c.stats.Stats.total_cycles / 1000) c.stats.commits c.stats.aborts);
                order := lbl :: !order;
                Some c
              | Some d when d = c.digest -> Some c
              | Some d ->
                fail lbl (Printf.sprintf "digest %s differs from the first pass (%s)" c.digest d);
                None))
          results
      in
      let v = values sp gc ok in
      Printf.printf
        "pass %d%s: host speed %.3f; in reference s: wall %.3f, setup %.4f, sim %.3f\n%!" i
        (if is_traced then " (traced)" else "")
        (List.assoc "bench.host_speed" v) (List.assoc "wall_s" v) (List.assoc "setup_s" v)
        (List.assoc "sim.run_s" v);
      passes := { traced = is_traced; values = v } :: !passes;
      loop (i + 1) (Spans.now_ns () - now)
    end
  in
  loop 0 0;
  let passes = List.rev !passes in
  let med traced name =
    median
      (List.filter_map
         (fun p -> if p.traced = traced then List.assoc_opt name p.values else None)
         passes)
  in
  let n_traced = List.length (List.filter (fun p -> p.traced) passes) in
  Printf.printf "stxbench %s seed %d: %d passes (%d traced), %d cells, %d failed\n" workload seed
    (List.length passes) n_traced !attempted (List.length !failures);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  let labels = List.rev !order in
  List.iter
    (fun l ->
      Printf.printf "digest %s %s (%s)\n" l (Hashtbl.find reference l) (Hashtbl.find summary l))
    labels;
  Printf.printf "digest %s %s\n" workload
    (Cells.digest (List.map (fun l -> l ^ " " ^ Hashtbl.find reference l) labels));
  let metrics =
    if not trace then
      let peak_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
      in
      List.map
        (fun (name, unit) ->
          (name, unit, if name = "peak_heap_mb" then peak_mb else med false name))
        end_to_end
    else begin
      let overhead = med true "wall_s" -. med false "wall_s" in
      let file = Filename.concat out_dir ("spans-" ^ workload ^ ".bin") in
      Spans.write traced ~file;
      Printf.printf "spans: %d from the last traced pass -> %s\n" (Spans.count traced) file;
      Printf.printf "self time per layer (median over traced passes):\n";
      List.iter
        (fun l -> Printf.printf "  %-10s %10.2f ms\n" l (med true (l ^ ".self_ms")))
        self_layers;
      Printf.printf "tracing overhead: %.3f s per pass (traced %.3f s, untraced %.3f s)\n"
        overhead (med true "wall_s") (med false "wall_s");
      List.map
        (fun (name, unit) ->
          ( name,
            unit,
            match List.assoc_opt name micro with
            | Some v -> v
            | None -> if name = "bench.trace_overhead_s" then overhead else med true name ))
        per_layer
    end
  in
  List.iter (fun (name, unit, v) -> Printf.printf "metric %-32s %16.6f %s\n" name v unit) metrics;
  let json_num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then begin
        prerr_endline ("stxbench: metric " ^ name ^ " is not a finite number");
        exit 1
      end)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = [])
    !attempted (List.length !failures)
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          metrics))
