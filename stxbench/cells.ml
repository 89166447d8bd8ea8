(* The three benchmark workloads, as cells run back to back in one pass.

   A pass first sets every cell up (the "bench.setup" span: compiling
   specs, creating collectors; on serve, a replica of the compile and
   arrival draw that Serve.run makes inside itself) and then runs the
   cells one by one, each followed by a sample of the reference suite
   (Calib) that the pass's host times are scaled by. Each cell returns its simulated results, a digest of
   them, and the outcome of every reconciliation check; a cell that raises
   or fails a check is reported as an [Error]. *)

open Stx_workloads
module Mode = Stx_core.Mode
module Machine = Stx_sim.Machine
module Stats = Stx_sim.Stats
module Mreg = Stx_metrics.Registry
module Hist = Stx_metrics.Hist
module Mcollect = Stx_metrics.Collect
module Tcollect = Stx_telemetry.Collect
module Trace = Stx_trace.Trace
module Serve = Stx_serve.Serve
module Rng = Stx_util.Rng

let cores = 16
let modes = [ Mode.Baseline; Mode.Staggered_hw ]
let cfg = Stx_machine.Config.with_cores cores Stx_machine.Config.default

(* ---- registry reads by label subset; no match is an error, never 0 ---- *)

let subset sub super = List.for_all (fun (k, v) -> List.assoc_opt k super = Some v) sub

let read reg name labels pick combine =
  match
    Mreg.fold
      (fun n ls v acc ->
        if n = name && subset labels ls then
          match (pick v, acc) with
          | Some x, None -> Some x
          | Some x, Some a -> Some (combine a x)
          | None, _ -> failwith (Printf.sprintf "registry: %s has another type" name)
        else acc)
      reg None
  with
  | Some x -> x
  | None ->
    failwith
      (Printf.sprintf "registry: no series %s{%s}" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)))

let hist reg name labels =
  read reg name labels (function Mreg.Histogram h -> Some h | _ -> None) Hist.merge

let counter reg name labels =
  read reg name labels (function Mreg.Counter c -> Some c | _ -> None) ( + )

let gauge reg name labels =
  read reg name labels (function Mreg.Gauge g -> Some g | _ -> None) max

(* ---- results ---- *)

type serve_cell = {
  rate : float;
  requests : int;
  saturated : bool;
  sojourn : Hist.t;
  wait : Hist.t;
  service : Hist.t;
  queue_max : int;
  occupancy : float;
}

type cell = {
  mode : Mode.t;
  stats : Stats.t;
  digest : string;
  anchors : int;
  events : int;  (* observer events (0 without observers) *)
  html_bytes : int;
  store_bytes : int;
  serve : serve_cell option;
}

(* Host-side counters a pass accumulates around its simulator calls. *)
type gc = { mutable minor_words : float; mutable major_gcs : int }

let simulate sp gc name f =
  let s0 = Gc.quick_stat () in
  let r = Spans.time sp name f in
  let s1 = Gc.quick_stat () in
  gc.minor_words <- gc.minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  gc.major_gcs <- gc.major_gcs + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

let stats_text (s : Stats.t) =
  let b = Buffer.create 512 in
  List.iter
    (fun v -> Buffer.add_string b (string_of_int v ^ " "))
    [ s.threads; s.commits; s.aborts; s.conflict_aborts; s.lock_sub_aborts;
      s.explicit_aborts; s.capacity_aborts; s.stm_conflict_aborts; s.stm_commits;
      s.stm_aborts; s.stm_validation_aborts; s.stm_hw_owned_aborts;
      s.stm_locksub_aborts; s.stm_validation_cycles; s.irrevocable_entries;
      s.useful_cycles; s.wasted_cycles; s.tx_mode_cycles; s.lock_wait_cycles;
      s.backoff_cycles; s.total_cycles; s.thread_cycles; s.lock_acquires;
      s.lock_timeouts; s.alps_executed; s.alps_lock_attempts; s.accuracy_hits;
      s.accuracy_total; s.precise; s.coarse; s.promoted; s.training; s.insts;
      s.tx_insts; s.committed_tx_insts ];
  Hashtbl.fold (fun ab a l -> (ab, a) :: l) s.per_ab []
  |> List.sort compare
  |> List.iter (fun (ab, (a : Stats.ab_stat)) ->
         Printf.bprintf b "|%d:%d,%d,%d,%d" ab a.ab_commits a.ab_aborts a.ab_locks
           a.ab_irrevocable);
  Buffer.contents b

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let label w mode = w ^ "/" ^ Mode.to_string mode

(* One seed per benchmark (or serve rate), shared by both modes so HTM and
   Staggered run the same inputs. *)
let derive_seeds seed n =
  let r = Rng.create seed in
  Array.init n (fun _ -> Rng.next r land 0x3fff_ffff)

let find name =
  match Registry.find name with
  | Some w -> w
  | None -> failwith ("workload missing from the registry: " ^ name)

(* Runs [prepare] for every cell inside "bench.setup", then [run] on each
   prepared cell inside "bench.cell", each followed by a sample of the
   reference suite inside "calib.run". *)
let two_phase sp items ~prepare ~run =
  let prepared =
    Spans.time sp "bench.setup" (fun () ->
        List.map
          (fun (lbl, x) ->
            (lbl, try Ok (prepare x) with e -> Error (Printexc.to_string e)))
          items)
  in
  List.map
    (fun (lbl, p) ->
      ( lbl,
        match p with
        | Error e -> Error e
        | Ok p ->
          let t0 = Spans.now_ns () in
          let r =
            try Spans.time sp "bench.cell" (fun () -> run p)
            with e -> Error (Printexc.to_string e)
          in
          let cell_ns = Spans.now_ns () - t0 in
          Spans.time sp "calib.run" (fun () -> Calib.sample ~cell_ns);
          r ))
    prepared

let spec sp w mode =
  Spans.time sp "compiler.spec" (fun () ->
      Workload.spec ~instrument:(Mode.uses_alps mode) ~scale:1.0 w)

let anchors (spec : Machine.spec) = snd (Stx_compiler.Pipeline.static_stats spec.compiled)

(* ---- sim-core: every workload x {HTM, Staggered}, no observers ---- *)

let sim_core sp gc ~seed =
  let seeds = derive_seeds seed (List.length Registry.all) in
  let items =
    List.concat
      (List.mapi
         (fun i (w : Workload.t) ->
           List.map (fun m -> (label w.name m, (w, m, seeds.(i)))) modes)
         Registry.all)
  in
  two_phase sp items
    ~prepare:(fun (w, mode, seed) -> (mode, seed, spec sp w mode))
    ~run:(fun (mode, seed, spec) ->
      let stats = simulate sp gc "sim.run" (fun () -> Machine.run ~seed ~cfg ~mode spec) in
      Ok
        {
          mode;
          stats;
          digest = digest [ stats_text stats ];
          anchors = anchors spec;
          events = 0;
          html_bytes = 0;
          store_bytes = 0;
          serve = None;
        })

(* ---- observed: the report path under the hybrid HTM/STM fallback ---- *)

let observed_set = [ "intruder"; "kmeans"; "list-hi"; "memcached"; "vacation" ]
let hybrid = Result.get_ok (Stx_policy.of_label "requester-wins+unbounded+htm-stm-lock")
let window = 1000

let file_size path = (Unix.stat path).Unix.st_size

let observed ~store sp gc ~seed =
  let seeds = derive_seeds seed (List.length observed_set) in
  let items =
    List.concat
      (List.mapi
         (fun i name -> List.map (fun m -> (label name m, (find name, m, seeds.(i)))) modes)
         observed_set)
  in
  two_phase sp items
    ~prepare:(fun (w, mode, seed) ->
      let spec = spec sp w mode in
      let tr = Spans.time sp "trace.create" (fun () -> Trace.create ~threads:cores ()) in
      let mc = Spans.time sp "metrics.create" (fun () -> Mcollect.create ~policy:hybrid ()) in
      let tc =
        Spans.time sp "telemetry.create" (fun () -> Tcollect.create ~window ~threads:cores ())
      in
      (w, mode, seed, spec, tr, mc, tc))
    ~run:(fun ((w : Workload.t), mode, seed, spec, tr, mc, tc) ->
      let lbl = label w.name mode in
      let h_tr = Spans.wrap_handler sp "trace.handler" (Trace.handler tr)
      and h_mc = Spans.wrap_handler sp "metrics.handler" (Mcollect.handler mc)
      and h_tc = Spans.wrap_handler sp "telemetry.handler" (Tcollect.handler tc) in
      let on_event ~time ev =
        h_mc ~time ev;
        h_tr ~time ev;
        h_tc ~time ev
      in
      let stats =
        simulate sp gc "sim.run" (fun () ->
            Machine.run ~seed ~htm_policy:hybrid ~cfg ~mode ~on_event spec)
      in
      let errors = ref [] in
      let check what = function
        | Ok () -> ()
        | Error es -> errors := List.map (fun e -> what ^ ": " ^ e) es @ !errors
      in
      check "trace" (Spans.time sp "trace.check" (fun () -> Trace.check tr stats));
      let reg = Mcollect.registry mc in
      check "metrics" (Spans.time sp "metrics.check" (fun () -> Mcollect.check reg stats));
      let replayed = Spans.time sp "metrics.replay" (fun () -> Mcollect.of_trace ~policy:hybrid tr) in
      if not (Mreg.equal reg replayed) then
        check "metrics online = replay" (Error (Mreg.diff reg replayed));
      let horizon = stats.Stats.total_cycles in
      let series = Spans.time sp "telemetry.finalize" (fun () -> Tcollect.finalize ~horizon tc) in
      let series' =
        Spans.time sp "telemetry.replay" (fun () -> Tcollect.of_trace ~window ~horizon tr)
      in
      if not (Stx_telemetry.Series.equal series series') then
        check "telemetry online = replay" (Error (Stx_telemetry.Series.diff series series'));
      let attribution = Spans.time sp "trace.attribution" (fun () -> Trace.abort_attribution tr) in
      let episodes =
        Spans.time sp "telemetry.episodes" (fun () -> Stx_telemetry.Episodes.detect series)
      in
      let atomics = spec.Machine.compiled.Stx_compiler.Pipeline.prog.Stx_tir.Ir.atomics in
      let ab_name id =
        if id >= 0 && id < Array.length atomics then
          Printf.sprintf "%d:%s" id atomics.(id).Stx_tir.Ir.ab_name
        else string_of_int id
      in
      let html =
        Spans.time sp "harness.render" (fun () ->
            Stx_harness.Htmlreport.render
              {
                Stx_harness.Htmlreport.workload = w.name;
                mode;
                seed;
                scale = 1.0;
                threads = cores;
                policy = hybrid;
                series;
                episodes;
                stats;
                registry = reg;
                attribution;
                ab_name;
              })
      in
      if String.length html = 0 then check "render" (Error [ "empty HTML" ]);
      let key = Digest.to_hex (Digest.string lbl) in
      let run = { Stx_metrics.Run.stats; metrics = reg } in
      Spans.time sp "runner.store_save" (fun () ->
          Stx_runner.Store.save store ~key run;
          Stx_runner.Store.save_blob store ~key html);
      let loaded, blob =
        Spans.time sp "runner.store_load" (fun () ->
            (Stx_runner.Store.load store ~key, Stx_runner.Store.load_blob store ~key))
      in
      (match loaded with
      | Some r
        when stats_text r.Stx_metrics.Run.stats = stats_text stats
             && Mreg.equal r.Stx_metrics.Run.metrics reg -> ()
      | _ -> check "store" (Error [ "result did not round-trip" ]));
      if blob <> Some html then check "store" (Error [ "HTML blob did not round-trip" ]);
      let reg_text = Spans.time sp "metrics.encode" (fun () -> Mreg.encode reg) in
      match !errors with
      | _ :: _ as es -> Error (String.concat "; " (List.rev es))
      | [] ->
        Ok
          {
            mode;
            stats;
            digest = digest (stats_text stats :: reg_text);
            anchors = anchors spec;
            events = Trace.length tr;
            html_bytes = String.length html;
            store_bytes =
              file_size (Stx_runner.Store.path store ~key)
              + file_size (Stx_runner.Store.blob_path store ~key);
            serve = None;
          })

(* ---- serve: memcached, open loop, Poisson arrivals over a rate grid ---- *)

let rates = [ 2.0; 6.0; 10.0; 14.0 ]
let reference_rate = 10.0

(* Long enough that the reference rate offers >= 10k requests at every
   seed: the mean is 10.5k and its standard deviation about 100. *)
let horizon = 1_050_000

let shards = 2
let memcached = lazy (Option.get (Registry.find_service "memcached"))

(* Poisson counts fall within six standard deviations of their mean. *)
let plausible_count ~rate n =
  let mean = rate *. float_of_int horizon /. 1000.0 in
  Float.abs (float_of_int n -. mean) <= 6.0 *. Float.sqrt mean

let serve sp gc ~seed =
  let sv = Lazy.force memcached in
  let seeds = derive_seeds seed (List.length rates) in
  let items =
    List.concat
      (List.mapi
         (fun i rate ->
           List.map
             (fun m -> (Printf.sprintf "memcached@%g/%s" rate (Mode.to_string m), (rate, m, seeds.(i))))
             modes)
         rates)
  in
  two_phase sp items
    ~prepare:(fun (rate, mode, seed) ->
      (* Serve.run compiles the service and draws every shard's arrivals
         inside itself, and takes neither from its caller. The next two
         calls replicate that work (one compile, arrivals at the full rate)
         so that setup_s, compiler.compile_ms and serve.arrival_ms have a
         figure on serve; only the anchor count of their output is used. *)
      let spec, _ =
        Spans.time sp "compiler.spec" (fun () ->
            Workload.service_spec ~instrument:(Mode.uses_alps mode) sv)
      in
      let arrival = Stx_serve.Arrival.Poisson { rate } in
      ignore
        (Spans.time sp "serve.arrivals" (fun () ->
             Stx_serve.Arrival.generate ~rng:(Rng.create seed) ~horizon arrival));
      let cfg =
        Serve.config ~mode ~threads:cores ~seed ~keys:(Stx_serve.Keys.Zipf 0.9) ~pct_get:70
          ~horizon ~shards ~arrival sv
      in
      (rate, mode, cfg, anchors spec))
    ~run:(fun (rate, mode, cfg, anchors) ->
      let report = simulate sp gc "serve.run" (fun () -> Serve.run ~jobs:1 cfg) in
      let reg = report.Serve.registry in
      let errors =
        report.Serve.errors
        @ (if plausible_count ~rate report.Serve.requests then []
           else [ Printf.sprintf "served %d requests at rate %g" report.Serve.requests rate ])
        @
        let offered = counter reg "stx_req_offered" []
        and completed = counter reg "stx_req_completed" []
        and commits = report.Serve.stats.Stats.commits in
        (* every request is one atomic block: exactly one commit each *)
        if offered = report.Serve.requests && completed = offered && commits = offered then []
        else [ Printf.sprintf "offered %d, completed %d, commits %d" offered completed commits ]
      in
      if errors <> [] then Error (String.concat "; " errors)
      else
        let sojourn = hist reg "stx_req_sojourn_cycles" []
        and wait = hist reg "stx_req_wait_cycles" []
        and service = hist reg "stx_req_service_cycles" [] in
        let q h = List.map (fun p -> string_of_int (Hist.quantile h p)) [ 0.5; 0.99; 0.999 ] in
        let queue_max = gauge reg "stx_req_queue_depth_max" [] in
        let s = report.Serve.stats in
        Ok
          {
            mode;
            stats = s;
            digest =
              digest
                ([ stats_text s; string_of_int report.Serve.requests;
                   string_of_int report.Serve.makespan; string_of_int queue_max ]
                @ q sojourn @ q wait @ q service);
            anchors;
            events = 0;
            html_bytes = 0;
            store_bytes = 0;
            serve =
              Some
                {
                  rate;
                  requests = report.Serve.requests;
                  saturated = report.Serve.saturated;
                  sojourn;
                  wait;
                  service;
                  queue_max;
                  occupancy = Serve.occupancy report;
                };
          })
