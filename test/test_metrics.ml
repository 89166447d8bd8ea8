open Stx_metrics
module Json = Stx_util.Json

(* The metrics layer rests on three contracts: histograms merge like
   Stats.merge (associative, order-independent), the registry renders
   deterministically, and the online collector is byte-equivalent to
   replaying the same run's trace capture. Each section below pins one
   of them. *)

let hist_of l =
  let h = Hist.create () in
  List.iter (Hist.add h) l;
  h

(* --- histogram units --------------------------------------------------- *)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty" true (Hist.is_empty h);
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "sum" 0 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 0 (Hist.max_value h);
  Alcotest.(check int) "quantile" 0 (Hist.p99 h);
  Alcotest.(check (float 0.)) "mean" 0. (Hist.mean h)

let test_hist_negative_rejected () =
  let h = Hist.create () in
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Hist.add: negative value") (fun () -> Hist.add h (-1))

let test_hist_exact_fields () =
  let h = hist_of [ 5; 0; 17; 5; 1024 ] in
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 1051 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 1024 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 210.2 (Hist.mean h)

let test_hist_single_value_quantiles () =
  let h = hist_of [ 42 ] in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%g collapses to the one value" q)
        42 (Hist.quantile h q))
    [ 0.; 0.5; 0.9; 0.99; 1. ]

let test_hist_quantile_clamped_to_extrema () =
  (* 100 observations of 3 and one of 200: p50's covering bucket is
     [2..3] whose upper bound is 3; p100 must be exactly max *)
  let h = hist_of (200 :: List.init 100 (fun _ -> 3)) in
  Alcotest.(check int) "p50" 3 (Hist.p50 h);
  Alcotest.(check int) "q=1 is max" 200 (Hist.quantile h 1.);
  Alcotest.(check int) "q=0 is >= min" 3 (Hist.quantile h 0.)

let test_hist_restore_round_trip () =
  let h = hist_of [ 0; 1; 2; 3; 900; 900; 7 ] in
  match
    Hist.restore ~count:(Hist.count h) ~sum:(Hist.sum h)
      ~min_value:(Hist.min_value h) ~max_value:(Hist.max_value h)
      (Hist.buckets_full h)
  with
  | None -> Alcotest.fail "restore rejected its own encode"
  | Some h' -> Alcotest.(check bool) "equal" true (Hist.equal h h')

let test_hist_restore_rejects_inconsistent () =
  let reject name ~count ~sum ~min_value ~max_value pairs =
    Alcotest.(check bool) name true
      (Hist.restore ~count ~sum ~min_value ~max_value pairs = None)
  in
  reject "count mismatch" ~count:3 ~sum:6 ~min_value:2 ~max_value:4
    [ (2, 2, 3) ];
  reject "descending bucket indices" ~count:2 ~sum:10 ~min_value:2 ~max_value:8
    [ (4, 1, 8); (2, 1, 3) ];
  reject "index out of range" ~count:1 ~sum:1 ~min_value:1 ~max_value:1
    [ (99, 1, 1) ];
  reject "max outside its bucket" ~count:1 ~sum:2 ~min_value:2 ~max_value:9
    [ (2, 1, 2) ];
  reject "bucket max outside its bucket" ~count:1 ~sum:2 ~min_value:2
    ~max_value:2 [ (2, 1, 5) ];
  reject "top bucket max disagrees with global max" ~count:1 ~sum:2
    ~min_value:2 ~max_value:3 [ (2, 1, 2) ];
  reject "nonempty empty hist" ~count:0 ~sum:3 ~min_value:0 ~max_value:0 []

(* --- histogram properties ---------------------------------------------- *)

let values = QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (int_range 0 100_000))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:100
    (QCheck.triple values values values) (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      Hist.equal
        (Hist.merge (Hist.merge ha hb) hc)
        (Hist.merge ha (Hist.merge hb hc)))

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge = histogram of concatenation" ~count:100
    (QCheck.pair values values) (fun (a, b) ->
      Hist.equal (Hist.merge (hist_of a) (hist_of b)) (hist_of (a @ b)))

let prop_bucket_boundaries =
  QCheck.Test.make ~name:"every value inside its bucket's bounds" ~count:500
    QCheck.(int_range 0 1_000_000_000)
    (fun v ->
      let k = Hist.bucket_index v in
      Hist.bucket_lower k <= v && v <= Hist.bucket_upper k)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:100
    (QCheck.triple values (QCheck.float_range 0. 1.) (QCheck.float_range 0. 1.))
    (fun (l, q1, q2) ->
      l = []
      ||
      let h = hist_of l in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Hist.quantile h lo <= Hist.quantile h hi)

let prop_quantile_within_bucket_of_truth =
  QCheck.Test.make ~name:"quantile within one bucket of the order statistic"
    ~count:100
    QCheck.(pair values (float_range 0. 1.))
    (fun (l, q) ->
      l = []
      ||
      let h = hist_of l in
      let sorted = List.sort compare l in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let got = Hist.quantile h q in
      Hist.bucket_index got = Hist.bucket_index truth
      || got >= Hist.min_value h && got <= Hist.max_value h)

let prop_quantile_is_observed =
  (* the per-bucket observed max guarantees a quantile is never a bucket
     bound nobody recorded — it is always one of the added values *)
  QCheck.Test.make ~name:"quantile is always an observed value" ~count:200
    QCheck.(pair values (float_range 0. 1.))
    (fun (l, q) ->
      l = []
      ||
      let h = hist_of l in
      List.mem (Hist.quantile h q) l)

(* --- json -------------------------------------------------------------- *)

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Str "x \"quoted\" \\ slash \n tab \t");
        ("c", Json.List [ Json.Null; Json.Bool true; Json.Float 2.5 ]);
        ("d", Json.Obj [ ("nested", Json.Int (-7)) ]);
      ]
  in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok doc' ->
    Alcotest.(check string) "print-parse-print stable" s (Json.to_string doc')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "{\"a\" 1}"; "\"\\x\"" ]

let test_json_int_float_distinction () =
  match Json.parse "{\"i\":3,\"f\":3.0}" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Json.member "i" doc with
    | Some (Json.Int 3) -> ()
    | _ -> Alcotest.fail "3 should parse as Int");
    (match Json.member "f" doc with
    | Some (Json.Float f) -> Alcotest.(check (float 0.)) "float" 3.0 f
    | _ -> Alcotest.fail "3.0 should parse as Float")

(* --- registry ---------------------------------------------------------- *)

let sample_registry () =
  let r = Registry.create () in
  Registry.inc r "stx_commits" [];
  Registry.inc r ~by:4 "stx_commits" [];
  Registry.set_gauge r "stx_depth" [ ("q", "a") ] 7;
  Registry.set_gauge r "stx_depth" [ ("q", "a") ] 3;
  List.iter (Registry.observe r "stx_lat" [ ("outcome", "commit") ]) [ 0; 5; 6 ];
  r

let test_registry_semantics () =
  let r = sample_registry () in
  Alcotest.(check int) "counter sums" 5 (Registry.counter_value r "stx_commits" []);
  Alcotest.(check int) "gauge high-water" 7
    (Registry.gauge_value r "stx_depth" [ ("q", "a") ]);
  Alcotest.(check int) "absent counter is 0" 0
    (Registry.counter_value r "nope" []);
  (match Registry.histogram r "stx_lat" [ ("outcome", "commit") ] with
  | Some h -> Alcotest.(check int) "hist count" 3 (Hist.count h)
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check int) "cardinality" 3 (Registry.cardinality r)

let test_registry_label_order_irrelevant () =
  let r = Registry.create () in
  Registry.inc r "m" [ ("a", "1"); ("b", "2") ];
  Registry.inc r "m" [ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "one cell" 1 (Registry.cardinality r);
  Alcotest.(check int) "both increments landed" 2
    (Registry.counter_value r "m" [ ("b", "2"); ("a", "1") ])

let test_registry_rejects_bad_names () =
  let r = Registry.create () in
  Alcotest.check_raises "bad metric name"
    (Invalid_argument "Registry: bad metric name \"0bad\"") (fun () ->
      Registry.inc r "0bad" []);
  Alcotest.check_raises "empty label value"
    (Invalid_argument "Registry: bad label value \"\"") (fun () ->
      Registry.inc r "m" [ ("k", "") ]);
  Alcotest.check_raises "duplicate label"
    (Invalid_argument "Registry: duplicate label \"k\"") (fun () ->
      Registry.inc r "m" [ ("k", "1"); ("k", "2") ])

let test_registry_type_clash_raises () =
  let r = Registry.create () in
  Registry.inc r "m" [];
  Alcotest.check_raises "counter used as histogram"
    (Invalid_argument "Registry: m is a counter, used as a histogram")
    (fun () -> Registry.observe r "m" [] 1)

let test_registry_merge () =
  let a = sample_registry () and b = sample_registry () in
  Registry.set_gauge b "stx_depth" [ ("q", "a") ] 11;
  let m = Registry.merge a b in
  Alcotest.(check int) "counters sum" 10 (Registry.counter_value m "stx_commits" []);
  Alcotest.(check int) "gauges max" 11
    (Registry.gauge_value m "stx_depth" [ ("q", "a") ]);
  (match Registry.histogram m "stx_lat" [ ("outcome", "commit") ] with
  | Some h ->
    Alcotest.(check int) "hists merge" 6 (Hist.count h);
    Alcotest.(check int) "hist sum" 22 (Hist.sum h)
  | None -> Alcotest.fail "merged histogram missing");
  (* the merge is fresh: mutating it must not touch the inputs *)
  Registry.inc m "stx_commits" [];
  Alcotest.(check int) "input untouched" 5
    (Registry.counter_value a "stx_commits" [])

let test_registry_equal_and_diff () =
  let a = sample_registry () and b = sample_registry () in
  Alcotest.(check bool) "equal" true (Registry.equal a b);
  Alcotest.(check (list string)) "no diff" [] (Registry.diff a b);
  Registry.inc b "stx_commits" [];
  Alcotest.(check bool) "unequal after inc" false (Registry.equal a b);
  Alcotest.(check (list string)) "diff names the counter"
    [ "stx_commits{-}: counter 5 vs 6" ] (Registry.diff a b)

let test_registry_json_golden () =
  Alcotest.(check string) "snapshot"
    ("{\"schema\":\"stx-metrics\",\"version\":1,\"metrics\":["
   ^ "{\"name\":\"stx_commits\",\"labels\":{},\"type\":\"counter\",\"value\":5},"
   ^ "{\"name\":\"stx_depth\",\"labels\":{\"q\":\"a\"},\"type\":\"gauge\",\"value\":7},"
   ^ "{\"name\":\"stx_lat\",\"labels\":{\"outcome\":\"commit\"},\"type\":\"histogram\","
   ^ "\"count\":3,\"sum\":11,\"min\":0,\"max\":6,\"buckets\":[[0,1,0],[3,2,6]]}]}")
    (Registry.to_json_string (sample_registry ()))

let test_registry_codec_round_trip () =
  let r = sample_registry () in
  match Registry.decode (Registry.encode r) with
  | None -> Alcotest.fail "decode rejected its own encode"
  | Some r' -> Alcotest.(check bool) "equal" true (Registry.equal r r')

(* values with backslashes, quotes, newlines and the bytes the store
   codec's own framing uses *)
let hairy_values =
  [ "back\\slash"; "dou\"ble"; "new\nline"; "sp ace,co=mma\ttab\rcr"; "plain" ]

let test_registry_codec_escapes_label_values () =
  let r = Registry.create () in
  List.iteri
    (fun i v ->
      Registry.inc r "m" ~by:(i + 1) [ ("k", v) ];
      Registry.set_gauge r "g" [ ("k", v) ] (i + 10);
      Registry.observe r "h" [ ("k", v) ] i)
    hairy_values;
  (* encode must still be one line per metric... *)
  List.iter
    (fun ln ->
      Alcotest.(check bool) "no embedded newline" false (String.contains ln '\n'))
    (Registry.encode r);
  (* ...and decode must reproduce the registry exactly *)
  match Registry.decode (Registry.encode r) with
  | None -> Alcotest.fail "decode rejected escaped label values"
  | Some r' ->
    Alcotest.(check (list string)) "round trip" [] (Registry.diff r r')

let test_registry_codec_rejects_corruption () =
  let lines = Registry.encode (sample_registry ()) in
  let reject name ls =
    Alcotest.(check bool) name true (Registry.decode ls = None)
  in
  reject "garbage line" (lines @ [ "wibble" ]);
  reject "non-numeric counter" [ "counter stx_commits - five" ];
  reject "bad hist payload" [ "hist stx_lat - 3 11 0 6 2 0 1 0" ];
  reject "inconsistent hist"
    [ "hist stx_lat - 99 11 0 6 2 0 1 0 3 2 6" ]

(* --- resolved handles ---------------------------------------------------- *)

let test_handle_unwritten_adds_nothing () =
  let r = sample_registry () in
  let before = Registry.to_json_string r in
  ignore (Registry.counter r "stx_unwritten" [ ("k", "v") ]);
  ignore (Registry.hist r "stx_lat" [ ("outcome", "abort") ]);
  Alcotest.(check int) "cardinality" 3 (Registry.cardinality r);
  Alcotest.(check string) "snapshot unchanged" before (Registry.to_json_string r)

let test_handle_type_clash_on_first_write () =
  let r = Registry.create () in
  Registry.inc r "m" [];
  (* resolving checks the key only; the kind is checked when writing *)
  let h = Registry.hist r "m" [] in
  Alcotest.check_raises "handle written at another type"
    (Invalid_argument "Registry: m is a counter, used as a histogram")
    (fun () -> Registry.record h 1);
  Registry.add (Registry.counter r "n" []) 1;
  Alcotest.check_raises "string-keyed write at another type"
    (Invalid_argument "Registry: n is a counter, used as a histogram")
    (fun () -> Registry.observe r "n" [] 1);
  Alcotest.(check int) "no cell was added or replaced" 2 (Registry.cardinality r)

let test_handle_and_string_key_share_a_cell () =
  let r = Registry.create () in
  let c = Registry.counter r "m" [ ("b", "2"); ("a", "1") ] in
  let h = Registry.hist r "h" [ ("k", "v") ] in
  (* the string-keyed writes come first, so the handles bind to cells
     that already exist *)
  Registry.inc r "m" [ ("a", "1"); ("b", "2") ];
  Registry.observe r "h" [ ("k", "v") ] 4;
  Registry.add c 2;
  Registry.record h 9;
  Registry.inc r ~by:3 "m" [ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "two cells" 2 (Registry.cardinality r);
  Alcotest.(check int) "every increment in one counter" 6
    (Registry.counter_value r "m" [ ("a", "1"); ("b", "2") ]);
  match Registry.histogram r "h" [ ("k", "v") ] with
  | Some x ->
    Alcotest.(check int) "both observations" 2 (Hist.count x);
    Alcotest.(check int) "sum" 13 (Hist.sum x)
  | None -> Alcotest.fail "histogram missing"

(* A hand-built stream with every event kind: hardware commits with and
   without a lock, every abort kind (one inside a wait episode), a lock
   timeout, backoff, an irrevocable commit, software commits and every
   software abort kind, requests, commits with no begin, and atomic
   blocks up to 40 (plus one negative id) so the per-block phase handles
   must grow. *)
let every_event_stream () =
  let module M = Stx_sim.Machine in
  let abort ~tid ~ab ~kind ~cycles =
    M.Tx_abort
      {
        tid; ab; kind; conf_line = Some 70; conf_pc = Some 3; aggressor = Some 0;
        cycles; rset = 3; wset = 1; probe = false;
      }
  in
  let commit ~tid ~ab ~cycles ~irrevocable =
    M.Tx_commit
      { tid; ab; cycles; irrevocable; rset = 4; wset = 2; probe = false }
  in
  let begin_ ~tid ~ab ~attempt = M.Tx_begin { tid; ab; attempt; probe = false } in
  let stm_abort ~ab ~kind ~cycles ~vcycles =
    M.Stm_abort { tid = 2; ab; kind; cycles; vcycles; rset = 2; wset = 0 }
  in
  [
    (0, begin_ ~tid:0 ~ab:0 ~attempt:0);
    (0, begin_ ~tid:1 ~ab:3 ~attempt:0);
    (0, M.Stm_begin { tid = 2; ab = 17; attempt = 0 });
    (0, M.Backoff_start { tid = 3 });
    (3, M.Backoff_end { tid = 3 });
    (4, M.Alp_executed { tid = 1; ab = 3; site = 2; fired = false });
    (4, M.Lock_attempt { tid = 1; lock = 9; line = 90 });
    (4, M.Lock_waiting { tid = 1; lock = 9 });
    (5, M.Alp_executed { tid = 0; ab = 0; site = 1; fired = true });
    (5, M.Lock_attempt { tid = 0; lock = 7; line = 70 });
    (5, M.Lock_waiting { tid = 0; lock = 7 });
    (5, M.Req_dispatch { tid = 3; req = 0; ab = 40 });
    (9, commit ~tid:3 ~ab:40 ~cycles:4 ~irrevocable:false);
    (9, M.Req_done { tid = 3; req = 0; ab = 40 });
    (10, M.Lock_timeout { tid = 1; lock = 9 });
    (10, stm_abort ~ab:17 ~kind:M.Stm_validation ~cycles:10 ~vcycles:3);
    (10, M.Stm_begin { tid = 2; ab = 17; attempt = 1 });
    (11, M.Stm_commit { tid = 3; ab = 40; cycles = 2; vcycles = 1; rset = 1; wset = 1 });
    (12, M.Lock_acquired { tid = 0; lock = 7; line = 70 });
    (12, M.Stm_commit { tid = 3; ab = -1; cycles = 1; vcycles = 0; rset = 0; wset = 0 });
    (15, stm_abort ~ab:17 ~kind:M.Stm_hw_owned ~cycles:5 ~vcycles:0);
    (15, M.Stm_begin { tid = 2; ab = 17; attempt = 2 });
    (20, abort ~tid:1 ~ab:3 ~kind:M.Conflict ~cycles:20);
    (20, M.Backoff_start { tid = 1 });
    (20, stm_abort ~ab:17 ~kind:M.Stm_locksub ~cycles:5 ~vcycles:1);
    (20, M.Stm_begin { tid = 2; ab = 17; attempt = 3 });
    (22, stm_abort ~ab:17 ~kind:M.Stm_explicit ~cycles:2 ~vcycles:0);
    (22, M.Stm_begin { tid = 2; ab = 17; attempt = 4 });
    (26, M.Backoff_end { tid = 1 });
    (26, begin_ ~tid:1 ~ab:3 ~attempt:1);
    (28, M.Lock_attempt { tid = 1; lock = 9; line = 90 });
    (28, M.Lock_waiting { tid = 1; lock = 9 });
    (30, M.Lock_released { tid = 0; lock = 7; committed = true });
    (30, commit ~tid:0 ~ab:0 ~cycles:30 ~irrevocable:false);
    (35, abort ~tid:1 ~ab:3 ~kind:M.Lock_subscription ~cycles:9);
    (35, begin_ ~tid:1 ~ab:3 ~attempt:2);
    (40, abort ~tid:1 ~ab:3 ~kind:M.Capacity ~cycles:5);
    (40, M.Stm_commit { tid = 2; ab = 17; cycles = 18; vcycles = 4; rset = 5; wset = 3 });
    (40, begin_ ~tid:1 ~ab:3 ~attempt:3);
    (41, abort ~tid:1 ~ab:3 ~kind:M.Explicit ~cycles:1);
    (41, begin_ ~tid:1 ~ab:3 ~attempt:4);
    (45, abort ~tid:1 ~ab:3 ~kind:M.Stm_conflict ~cycles:4);
    (45, M.Tx_irrevocable { tid = 1; ab = 3 });
    (45, begin_ ~tid:1 ~ab:3 ~attempt:5);
    (60, commit ~tid:1 ~ab:3 ~cycles:15 ~irrevocable:true);
  ]

(* recorded from the string-keyed collector (one [Registry.inc] or
   [Registry.observe] per write, labels appended and sorted per event)
   on the same stream: the handle-based collector must write the same
   bytes *)
let every_event_encode_digest = "87c5d8a27af9666177defd29373648da"

let test_handles_match_string_keyed_bytes () =
  let tr = Stx_trace.Trace.create ~threads:4 () in
  List.iter
    (fun (time, ev) -> Stx_trace.Trace.handler tr ~time ev)
    (every_event_stream ());
  let htm_policy =
    Result.get_ok (Stx_policy.of_label "requester-wins+unbounded+htm-stm-lock")
  in
  let lines = Registry.encode (Collect.of_trace ~policy:htm_policy tr) in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  List.iter
    (fun p -> Alcotest.(check bool) ("series " ^ p) true (has p))
    [
      "counter stx_phase_cycles ab=40,phase=prefix,";
      "counter stx_phase_cycles ab=-1,phase=stm,";
      "counter stx_stm_aborts kind=stm_explicit,";
      "hist stx_lock_wait_cycles outcome=aborted,";
    ];
  Alcotest.(check int) "series" 46 (List.length lines);
  Alcotest.(check string) "encode digest" every_event_encode_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* --- online vs trace replay, every workload x mode --------------------- *)

(* same tiny-but-contended configuration as test_trace.ml *)
let seed = 3
let scale = 0.05
let threads = 4

let all_modes =
  [
    Stx_core.Mode.Baseline;
    Stx_core.Mode.Addr_only;
    Stx_core.Mode.Staggered_sw;
    Stx_core.Mode.Staggered_hw;
  ]

let measured = Hashtbl.create 64

let run_with_trace (w : Stx_workloads.Workload.t) mode =
  let key = (w.Stx_workloads.Workload.name, mode) in
  match Hashtbl.find_opt measured key with
  | Some r -> r
  | None ->
    let spec =
      Stx_workloads.Workload.spec
        ~instrument:(Stx_core.Mode.uses_alps mode)
        ~scale w
    in
    let cfg = Stx_machine.Config.with_cores threads Stx_machine.Config.default in
    let o =
      Stx_harness.Observed.run ~seed ~htm_policy:Stx_policy.default ~cfg ~mode
        spec
    in
    let r = { Run.stats = o.Stx_harness.Observed.stats; metrics = o.metrics } in
    Hashtbl.add measured key (r, o.trace);
    (r, o.trace)

let test_online_equals_replay () =
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let cell =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          let r, tr = run_with_trace w mode in
          let replayed = Collect.of_trace tr in
          match Registry.diff r.Run.metrics replayed with
          | [] -> ()
          | errs ->
            Alcotest.fail
              (cell ^ ": online and replayed registries diverge:\n  "
             ^ String.concat "\n  " errs))
        all_modes)
    Stx_workloads.Registry.all

let test_collect_check_reconciles () =
  List.iter
    (fun (w : Stx_workloads.Workload.t) ->
      List.iter
        (fun mode ->
          let cell =
            Printf.sprintf "%s/%s" w.Stx_workloads.Workload.name
              (Stx_core.Mode.to_string mode)
          in
          let r, _ = run_with_trace w mode in
          match Collect.check r.Run.metrics r.Run.stats with
          | Ok () -> ()
          | Error errs ->
            Alcotest.fail
              (cell ^ ": registry fails to reconcile with stats:\n  "
             ^ String.concat "\n  " errs))
        all_modes)
    Stx_workloads.Registry.all

let test_run_merge_matches_stats_merge () =
  let a, _ = run_with_trace (List.hd Stx_workloads.Registry.all) Stx_core.Mode.Baseline in
  let b, _ =
    run_with_trace (List.hd Stx_workloads.Registry.all) Stx_core.Mode.Staggered_hw
  in
  let m = Run.merge a b in
  Alcotest.(check int) "commits sum"
    (a.Run.stats.Stx_sim.Stats.commits + b.Run.stats.Stx_sim.Stats.commits)
    m.Run.stats.Stx_sim.Stats.commits;
  Alcotest.(check int) "registry counter sums"
    (Registry.counter_value a.Run.metrics "stx_commits" []
    + Registry.counter_value b.Run.metrics "stx_commits" [])
    (Registry.counter_value m.Run.metrics "stx_commits" [])

(* --- GC pressure stamped at export time -------------------------------- *)

let test_gcstats_stamp () =
  let reg = Registry.create () in
  Registry.inc reg "stx_commits" [];
  let out = Gcstats.stamp reg in
  Alcotest.(check bool) "minor words counted" true
    (Registry.counter_value out "stx_gc_minor_words" [] > 0);
  Alcotest.(check bool) "major collections counted" true
    (Registry.counter_value out "stx_gc_major_collections" [] >= 0);
  Alcotest.(check int) "existing series carried over" 1
    (Registry.counter_value out "stx_commits" []);
  (* the live registry stays clean: online/replay equality depends on it *)
  Alcotest.(check int) "argument registry untouched" 0
    (Registry.counter_value reg "stx_gc_minor_words" []);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "in the JSON snapshot" true
    (contains (Registry.to_json_string out) "stx_gc_minor_words")

(* --- the phase profile: the paper's claim, measured -------------------- *)

let genome () =
  match Stx_workloads.Registry.find "genome" with
  | Some w -> w
  | None -> Alcotest.fail "genome workload missing"

let test_baseline_has_no_suffix () =
  let r, _ = run_with_trace (genome ()) Stx_core.Mode.Baseline in
  Alcotest.(check int) "no advisory locks, no serialized suffix" 0
    (Collect.phase_total r.Run.metrics Collect.Suffix);
  Alcotest.(check int) "nor lock wait" 0
    (Collect.phase_total r.Run.metrics Collect.Lock_wait);
  Alcotest.(check bool) "but committed prefix cycles exist" true
    (Collect.phase_total r.Run.metrics Collect.Prefix > 0)

let test_staggered_has_nonzero_suffix () =
  let r, _ = run_with_trace (genome ()) Stx_core.Mode.Staggered_hw in
  Alcotest.(check bool) "serialized suffix present" true
    (Collect.phase_total r.Run.metrics Collect.Suffix > 0);
  Alcotest.(check bool) "speculative prefix still present" true
    (Collect.phase_total r.Run.metrics Collect.Prefix > 0)

(* a capture that opens mid-run (commits whose begin was never seen)
   still satisfies the cycle identities: no retry is invented and each
   commit's cycles land whole in one phase *)
let test_degraded_stream () =
  let module M = Stx_sim.Machine in
  let tr = Stx_trace.Trace.create ~threads:2 () in
  let commit ~ab ~irrevocable =
    M.Tx_commit
      { tid = 0; ab; cycles = 100 + ab; irrevocable; rset = 1; wset = 1; probe = false }
  in
  List.iter
    (fun (time, ev) -> Stx_trace.Trace.handler tr ~time ev)
    [
      (10, commit ~ab:0 ~irrevocable:false);
      (20, commit ~ab:1 ~irrevocable:true);
      (30, M.Stm_commit { tid = 1; ab = 2; cycles = 102; vcycles = 0; rset = 1; wset = 1 });
    ];
  let reg = Collect.of_trace tr in
  let retries =
    Registry.fold
      (fun name _ v acc ->
        match v with
        | Registry.Histogram h when name = "stx_tx_retries" -> Some h
        | _ -> acc)
      reg None
  in
  (match retries with
  | Some h ->
    Alcotest.(check int) "one retries observation per commit" 3 (Hist.count h);
    Alcotest.(check int) "every one observed as 0" 0 (Hist.max_value h)
  | None -> Alcotest.fail "no retries histogram");
  List.iter
    (fun ab ->
      List.iter
        (fun p ->
          let want =
            match (ab, p) with
            | 0, Collect.Prefix | 1, Collect.Irrevocable | 2, Collect.Stm -> 100 + ab
            | _ -> 0
          in
          Alcotest.(check int)
            (Printf.sprintf "ab%d %s" ab (Collect.phase_label p))
            want (Collect.phase_cycles reg ~ab p))
        Collect.phases)
    [ 0; 1; 2 ]

(* --- bench snapshots and the regression gate --------------------------- *)

let entry ?(workload = "genome") ?(mode = "HTM") ?(throughput = 100.) () =
  {
    Stx_harness.Bench.workload;
    mode;
    throughput;
    abort_rate = 0.5;
    p99_latency = 1000;
    prefix_share = 0.8;
    suffix_share = 0.1;
  }

let sim_entry ?(workload = "genome") ?(events_per_sec = 1_000_000.)
    ?(words_per_event = 0.5) () =
  {
    Stx_harness.Bench.sim_workload = workload;
    sim_events = 100_000;
    sim_events_per_sec = events_per_sec;
    sim_minor_words_per_event = words_per_event;
  }

let snapshot ?(sims = []) entries =
  {
    Stx_harness.Bench.schema_version = Stx_harness.Bench.schema_version;
    seed = 3;
    scale = 0.05;
    threads = 4;
    entries;
    sims;
  }

let test_bench_json_round_trip () =
  let t =
    snapshot
      ~sims:[ sim_entry (); sim_entry ~workload:"intruder" ~words_per_event:0. () ]
      [ entry (); entry ~mode:"Staggered" ~throughput:123.456 () ]
  in
  match Stx_harness.Bench.of_json_string (Stx_harness.Bench.to_json_string t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check string) "stable reprint"
      (Stx_harness.Bench.to_json_string t)
      (Stx_harness.Bench.to_json_string t')

let test_bench_rejects_foreign_version () =
  let s =
    "{\"schema\":\"stx-bench\",\"version\":99,\"seed\":1,\"scale\":1.0,\
     \"threads\":4,\"entries\":[]}"
  in
  match Stx_harness.Bench.of_json_string s with
  | Ok _ -> Alcotest.fail "accepted a future schema version"
  | Error e ->
    Alcotest.(check bool) "message names the version" true
      (String.length e > 0)

let test_bench_v2_requires_sims () =
  (* a version-2 snapshot without the sim series is structurally invalid *)
  let s =
    "{\"schema\":\"stx-bench\",\"version\":2,\"seed\":1,\"scale\":1.0,\
     \"threads\":4,\"entries\":[]}"
  in
  match Stx_harness.Bench.of_json_string s with
  | Ok _ -> Alcotest.fail "accepted a v2 snapshot with no sims field"
  | Error e ->
    Alcotest.(check bool) "message names the field" true
      (String.length e > 0)

let verdict_of baseline_thr new_thr =
  let open Stx_harness.Bench in
  let cs =
    compare_runs
      ~baseline:(snapshot [ entry ~throughput:baseline_thr () ])
      (snapshot [ entry ~throughput:new_thr () ])
  in
  match cs with [ c ] -> c.verdict | _ -> Alcotest.fail "expected one cell"

let test_bench_verdicts () =
  let open Stx_harness.Bench in
  Alcotest.(check bool) "regression" true (verdict_of 100. 70. = Regressed);
  Alcotest.(check bool) "improvement" true (verdict_of 100. 130. = Improved);
  Alcotest.(check bool) "within threshold" true (verdict_of 100. 90. = Neutral);
  Alcotest.(check bool) "just inside the gate" true
    (verdict_of 100. 81. = Neutral)

let test_bench_added_removed_not_regressions () =
  let open Stx_harness.Bench in
  let cs =
    compare_runs
      ~baseline:(snapshot [ entry ~mode:"HTM" () ])
      (snapshot [ entry ~mode:"Staggered" () ])
  in
  Alcotest.(check int) "two cells" 2 (List.length cs);
  Alcotest.(check bool) "no regression" true (regressions cs = []);
  Alcotest.(check bool) "one added, one removed" true
    (List.exists (fun c -> c.verdict = Added) cs
    && List.exists (fun c -> c.verdict = Removed) cs)

let test_bench_gate_exit_condition () =
  let open Stx_harness.Bench in
  let baseline = snapshot [ entry (); entry ~mode:"Staggered" () ] in
  let regressed =
    snapshot [ entry ~throughput:10. (); entry ~mode:"Staggered" () ]
  in
  let cs = compare_runs ~baseline regressed in
  (match regressions cs with
  | [ c ] ->
    Alcotest.(check string) "the regressed cell" "HTM" c.c_mode;
    Alcotest.(check bool) "ratio recorded" true (c.ratio < 0.2)
  | _ -> Alcotest.fail "expected exactly one regression");
  Alcotest.check_raises "threshold validated"
    (Invalid_argument "Bench.compare_runs: threshold must be in (0, 1)")
    (fun () -> ignore (compare_runs ~threshold:1.5 ~baseline regressed))

let sim_verdict_of ~base ~fresh =
  let open Stx_harness.Bench in
  let cs =
    compare_sims ~baseline:(snapshot ~sims:[ base ] [])
      (snapshot ~sims:[ fresh ] [])
  in
  match cs with [ c ] -> c.s_verdict | _ -> Alcotest.fail "expected one cell"

let test_sim_compare_verdicts () =
  let open Stx_harness.Bench in
  Alcotest.(check bool) "slower past the gate regresses" true
    (sim_verdict_of ~base:(sim_entry ())
       ~fresh:(sim_entry ~events_per_sec:700_000. ())
    = Regressed);
  Alcotest.(check bool) "faster past the gate improves" true
    (sim_verdict_of ~base:(sim_entry ())
       ~fresh:(sim_entry ~events_per_sec:1_300_000. ())
    = Improved);
  Alcotest.(check bool) "more allocation past the gate regresses" true
    (sim_verdict_of ~base:(sim_entry ())
       ~fresh:(sim_entry ~words_per_event:0.8 ())
    = Regressed);
  Alcotest.(check bool) "less allocation past the gate improves" true
    (sim_verdict_of ~base:(sim_entry ())
       ~fresh:(sim_entry ~words_per_event:0.1 ())
    = Improved);
  Alcotest.(check bool) "within both gates is neutral" true
    (sim_verdict_of ~base:(sim_entry ())
       ~fresh:(sim_entry ~events_per_sec:1_100_000. ~words_per_event:0.55 ())
    = Neutral);
  Alcotest.(check bool) "zero-alloc baseline leaves only the speed leg" true
    (sim_verdict_of
       ~base:(sim_entry ~words_per_event:0. ())
       ~fresh:(sim_entry ~words_per_event:0.01 ())
    = Neutral);
  Alcotest.(check int) "regression list filters" 1
    (List.length
       (sim_regressions
          (compare_sims
             ~baseline:
               (snapshot ~sims:[ sim_entry (); sim_entry ~workload:"tsp" () ] [])
             (snapshot
                ~sims:
                  [
                    sim_entry ~events_per_sec:100. ();
                    sim_entry ~workload:"tsp" ();
                  ]
                []))))

let test_sim_alloc_budget () =
  let open Stx_harness.Bench in
  let ok = snapshot ~sims:[ sim_entry ~words_per_event:6.8 () ] [] in
  Alcotest.(check int) "under budget: no violations" 0
    (List.length (alloc_violations ok));
  let bad =
    snapshot
      ~sims:
        [
          sim_entry ~words_per_event:6.8 ();
          sim_entry ~workload:"tsp" ~words_per_event:minor_words_budget ();
        ]
      []
  in
  match alloc_violations bad with
  | [ e ] -> Alcotest.(check string) "the offender" "tsp" e.sim_workload
  | _ -> Alcotest.fail "expected exactly one violation"

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "empty histogram" `Quick test_hist_empty;
    Alcotest.test_case "negative observation rejected" `Quick
      test_hist_negative_rejected;
    Alcotest.test_case "count/sum/min/max exact" `Quick test_hist_exact_fields;
    Alcotest.test_case "single-value quantiles collapse" `Quick
      test_hist_single_value_quantiles;
    Alcotest.test_case "quantiles clamped to extrema" `Quick
      test_hist_quantile_clamped_to_extrema;
    Alcotest.test_case "restore round trip" `Quick test_hist_restore_round_trip;
    Alcotest.test_case "restore rejects inconsistent parts" `Quick
      test_hist_restore_rejects_inconsistent;
    q prop_merge_associative;
    q prop_merge_is_concat;
    q prop_bucket_boundaries;
    q prop_quantile_monotone;
    q prop_quantile_within_bucket_of_truth;
    q prop_quantile_is_observed;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json keeps int/float distinct" `Quick
      test_json_int_float_distinction;
    Alcotest.test_case "registry semantics" `Quick test_registry_semantics;
    Alcotest.test_case "label order canonicalized" `Quick
      test_registry_label_order_irrelevant;
    Alcotest.test_case "bad names rejected" `Quick
      test_registry_rejects_bad_names;
    Alcotest.test_case "type clash raises" `Quick
      test_registry_type_clash_raises;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "equal and diff" `Quick test_registry_equal_and_diff;
    Alcotest.test_case "json snapshot golden" `Quick test_registry_json_golden;
    Alcotest.test_case "codec escapes label values" `Quick
      test_registry_codec_escapes_label_values;
    Alcotest.test_case "store codec round trip" `Quick
      test_registry_codec_round_trip;
    Alcotest.test_case "store codec rejects corruption" `Quick
      test_registry_codec_rejects_corruption;
    Alcotest.test_case "unwritten handle adds no series" `Quick
      test_handle_unwritten_adds_nothing;
    Alcotest.test_case "handle type clash on first write" `Quick
      test_handle_type_clash_on_first_write;
    Alcotest.test_case "handle and string key share a cell" `Quick
      test_handle_and_string_key_share_a_cell;
    Alcotest.test_case "handles write the string-keyed bytes" `Quick
      test_handles_match_string_keyed_bytes;
    Alcotest.test_case "online = trace replay (all workloads x modes)" `Slow
      test_online_equals_replay;
    Alcotest.test_case "registry reconciles with stats everywhere" `Slow
      test_collect_check_reconciles;
    Alcotest.test_case "Run.merge is pairwise" `Quick
      test_run_merge_matches_stats_merge;
    Alcotest.test_case "baseline commits are all prefix" `Quick
      test_baseline_has_no_suffix;
    Alcotest.test_case "staggered serializes a nonzero suffix" `Quick
      test_staggered_has_nonzero_suffix;
    Alcotest.test_case "bench snapshot round trip" `Quick
      test_bench_json_round_trip;
    Alcotest.test_case "bench rejects foreign versions" `Quick
      test_bench_rejects_foreign_version;
    Alcotest.test_case "bench verdicts at the threshold" `Quick
      test_bench_verdicts;
    Alcotest.test_case "added/removed cells are not regressions" `Quick
      test_bench_added_removed_not_regressions;
    Alcotest.test_case "the gate fires on an injected regression" `Quick
      test_bench_gate_exit_condition;
    Alcotest.test_case "v2 snapshots require the sim series" `Quick
      test_bench_v2_requires_sims;
    Alcotest.test_case "sim compare verdicts (speed and alloc legs)" `Quick
      test_sim_compare_verdicts;
    Alcotest.test_case "sim allocation budget violations" `Quick
      test_sim_alloc_budget;
    Alcotest.test_case "gc counters stamped at export" `Quick
      test_gcstats_stamp;
    Alcotest.test_case "degraded stream: commits with no begin" `Quick
      test_degraded_stream;
  ]
