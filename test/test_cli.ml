open Cmdliner
open Stx_workloads

(* The command-line boundary: every shared converter accepts the
   spellings the binaries document, refuses a value that cannot describe
   a run, and prints its default the way --help showed it before the
   flags were typed. *)

let parse conv s = Result.map_error (fun (`Msg m) -> m) (Arg.conv_parser conv s)

let print conv v = Format.asprintf "%a" (Arg.conv_printer conv) v

let accepts conv s check =
  match parse conv s with
  | Ok v -> check v
  | Error m -> Alcotest.failf "%S refused: %s" s m

let refuses conv s =
  match parse conv s with
  | Ok _ -> Alcotest.failf "%S accepted" s
  | Error m -> m

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_counts () =
  accepts Stx_cli.pos_int "3" (Alcotest.(check int) "pos_int" 3);
  accepts Stx_cli.pos_int " 7 " (Alcotest.(check int) "trimmed" 7);
  Alcotest.(check string) "pos_int message" "\"0\" is not a positive integer"
    (refuses Stx_cli.pos_int "0");
  ignore (refuses Stx_cli.pos_int "x");
  accepts Stx_cli.pos_float "0.5" (Alcotest.(check (float 0.)) "pos_float" 0.5);
  List.iter
    (fun s -> ignore (refuses Stx_cli.pos_float s))
    [ "0"; "-1"; "nan"; "inf"; "x" ]

let test_percent () =
  accepts Stx_cli.percent "0" (Alcotest.(check int) "lower bound" 0);
  accepts Stx_cli.percent "100" (Alcotest.(check int) "upper bound" 100);
  Alcotest.(check string) "101 refused"
    "\"101\" is not a percentage in 0..100"
    (refuses Stx_cli.percent "101");
  ignore (refuses Stx_cli.percent "-1")

let test_rates () =
  accepts Stx_cli.rates "2, 10"
    (Alcotest.(check (list (float 0.))) "list" [ 2.; 10. ]);
  ignore (refuses Stx_cli.rates "2,x");
  ignore (refuses Stx_cli.rates "");
  ignore (refuses Stx_cli.rates "2,,3");
  Alcotest.(check string) "default prints as typed" "2,6,10,14"
    (print Stx_cli.rates [ 2.; 6.; 10.; 14. ])

let test_mode () =
  let open Stx_core in
  List.iter
    (fun m ->
      accepts Stx_cli.mode (Mode.to_string m) (fun m' ->
          Alcotest.(check bool) (Mode.to_string m) true (m = m')))
    Mode.all;
  accepts Stx_cli.mode "hw" (fun m ->
      Alcotest.(check bool) "alias" true (m = Mode.Staggered_hw));
  let msg = refuses Stx_cli.mode "nope" in
  List.iter
    (fun m ->
      let name = Mode.to_string m in
      Alcotest.(check bool) ("error lists " ^ name) true (contains ~sub:name msg);
      Alcotest.(check bool) ("doc lists " ^ name) true
        (contains ~sub:name Stx_cli.mode_doc))
    Mode.all

let names ws = List.map (fun w -> w.Workload.name) ws

let test_bench () =
  accepts Stx_cli.bench "genome" (fun w ->
      Alcotest.(check string) "bench" "genome" w.Workload.name);
  Alcotest.(check bool) "refusal names the value" true
    (contains ~sub:"\"nosuch\"" (refuses Stx_cli.bench "nosuch"))

let test_benches () =
  accepts Stx_cli.benches "all" (fun ws ->
      Alcotest.(check (list string)) "all" Registry.names (names ws));
  accepts Stx_cli.benches "genome,list-hi" (fun ws ->
      Alcotest.(check (list string))
        "comma list" [ "genome"; "list-hi" ] (names ws));
  Alcotest.(check bool) "first bad name reported" true
    (contains ~sub:"\"nosuch\"" (refuses Stx_cli.benches "genome,nosuch,other"));
  ignore (refuses Stx_cli.benches "");
  Alcotest.(check string) "Registry.all prints as all" "all"
    (print Stx_cli.benches Registry.all);
  Alcotest.(check string) "one bench" "list-hi"
    (print Stx_cli.benches [ W_list.list_hi ])

let test_service () =
  accepts Stx_cli.service "memcached" (fun s ->
      Alcotest.(check string) "service" "memcached"
        s.Workload.sv_bench.Workload.name);
  (* genome is a benchmark without a serving face *)
  ignore (refuses Stx_cli.service "genome")

let test_serve_params () =
  let open Stx_serve in
  accepts Stx_cli.keys "zipf:0.9" (fun k ->
      Alcotest.(check string) "keys" "zipf:0.9" (Keys.to_string k));
  ignore (refuses Stx_cli.keys "zipf:-1");
  accepts Stx_cli.arrival "poisson:4" (fun a ->
      Alcotest.(check string) "arrival" "poisson:4" (Arrival.to_string a));
  Alcotest.(check bool) "arrival refusal names the value" true
    (contains ~sub:"\"fixed:9000\"" (refuses Stx_cli.arrival "fixed:9000"));
  accepts Stx_cli.shard_by "key" (fun sb ->
      Alcotest.(check bool) "shard-by" true (sb = Serve.Key));
  ignore (refuses Stx_cli.shard_by "foo")

(* the policy term is evaluated as a whole command: defaults, each axis,
   and a refusal that never reaches the program *)
let eval_policy args =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let cmd = Cmd.v (Cmd.info "t") Stx_cli.policy_term in
  let argv = Array.of_list ("t" :: args) in
  match Cmd.eval_value ~err:null ~help:null ~argv cmd with
  | Ok (`Ok p) -> Ok p
  | Ok _ -> Alcotest.fail "unexpected help/version"
  | Error e -> Error e

let test_policy_term () =
  let label args =
    match eval_policy args with
    | Ok p -> Stx_policy.label p
    | Error _ -> Alcotest.failf "refused: %s" (String.concat " " args)
  in
  Alcotest.(check string) "defaults"
    (Stx_policy.label Stx_policy.default) (label []);
  Alcotest.(check string) "resolution" "timestamp+unbounded+polite"
    (label [ "--policy"; "karma" ]);
  Alcotest.(check string) "capacity" "requester-wins+bounded:16:8+polite"
    (label [ "--capacity"; "bounded:16:8" ]);
  Alcotest.(check string) "fallback" "requester-wins+unbounded+htm-stm-lock"
    (label [ "--fallback"; "stm" ]);
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args) true
        (eval_policy args = Error `Parse))
    [
      [ "--policy"; "nope" ];
      [ "--capacity"; "bounded:0:1" ];
      [ "--fallback"; "wat" ];
    ]

let suite =
  [
    Alcotest.test_case "converters: counts and scales" `Quick test_counts;
    Alcotest.test_case "converters: percent 0..100" `Quick test_percent;
    Alcotest.test_case "converters: rate list" `Quick test_rates;
    Alcotest.test_case "converters: mode docs and errors from Mode.all" `Quick
      test_mode;
    Alcotest.test_case "converters: benchmark" `Quick test_bench;
    Alcotest.test_case "converters: benchmark list" `Quick test_benches;
    Alcotest.test_case "converters: service" `Quick test_service;
    Alcotest.test_case "converters: keys, arrival, shard-by" `Quick
      test_serve_params;
    Alcotest.test_case "policy_term: each axis" `Quick test_policy_term;
  ]
