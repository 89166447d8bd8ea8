open Stx_core
open Stx_sim
open Stx_workloads
module Trace = Stx_trace.Trace

(* The trace recorder, its invariant checker, and the Chrome exporter.
   Runs stay tiny (low scale, 4 threads) to keep the suite fast. *)

let threads = 4

let run_traced ?capacity ?(scale = 0.05) ~mode w =
  let tr = Trace.create ?capacity ~threads () in
  let spec = Workload.spec ~instrument:(Mode.uses_alps mode) ~scale w in
  let stats =
    Machine.run ~seed:3
      ~cfg:(Stx_machine.Config.with_cores threads Stx_machine.Config.default)
      ~mode
      ~on_event:(Trace.handler tr)
      spec
  in
  (tr, stats)

let all_modes =
  [ Mode.Baseline; Mode.Addr_only; Mode.Staggered_sw; Mode.Staggered_hw ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* every workload x every mode: the replayed event stream must reconcile
   with the inline counters *)
let test_check_green_everywhere () =
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          let tr, stats = run_traced ~mode w in
          match Trace.check tr stats with
          | Ok () -> ()
          | Error errs ->
            Alcotest.failf "%s / %s:\n  %s" w.Workload.name (Mode.to_string mode)
              (String.concat "\n  " errs))
        all_modes)
    Registry.all

(* deliberately corrupting any counter must trip the checker *)
let test_check_detects_corruption () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~mode:Mode.Staggered_hw w in
  let expect_divergence name bump restore =
    bump ();
    (match Trace.check tr stats with
    | Ok () -> Alcotest.failf "corrupted %s went undetected" name
    | Error _ -> ());
    restore ();
    match Trace.check tr stats with
    | Ok () -> ()
    | Error errs ->
      Alcotest.failf "restore of %s left divergence: %s" name
        (String.concat "; " errs)
  in
  expect_divergence "commits"
    (fun () -> stats.Stats.commits <- stats.Stats.commits + 1)
    (fun () -> stats.Stats.commits <- stats.Stats.commits - 1);
  expect_divergence "aborts"
    (fun () -> stats.Stats.aborts <- stats.Stats.aborts - 1)
    (fun () -> stats.Stats.aborts <- stats.Stats.aborts + 1);
  expect_divergence "lock_acquires"
    (fun () -> stats.Stats.lock_acquires <- stats.Stats.lock_acquires + 1)
    (fun () -> stats.Stats.lock_acquires <- stats.Stats.lock_acquires - 1);
  expect_divergence "useful_cycles"
    (fun () -> stats.Stats.useful_cycles <- stats.Stats.useful_cycles + 7)
    (fun () -> stats.Stats.useful_cycles <- stats.Stats.useful_cycles - 7);
  let ab0 = Stats.ab stats 0 in
  expect_divergence "per-ab commits"
    (fun () -> ab0.Stats.ab_commits <- ab0.Stats.ab_commits + 1)
    (fun () -> ab0.Stats.ab_commits <- ab0.Stats.ab_commits - 1)

(* a ring-mode trace is bounded — and refuses to vouch for anything *)
let test_ring_bounds_and_refuses () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~capacity:128 ~mode:Mode.Staggered_hw w in
  Alcotest.(check int) "ring length" 128 (Trace.length tr);
  Alcotest.(check bool) "dropped some" true (Trace.dropped tr > 0);
  match Trace.check tr stats with
  | Ok () -> Alcotest.fail "a truncated trace must not reconcile"
  | Error (e :: _) ->
    Alcotest.(check bool) "mentions dropped events" true (contains e "dropped")
  | Error [] -> Alcotest.fail "empty error list"

let test_attribution_accounts_every_conflict () =
  let w = Option.get (Registry.find "memcached") in
  let tr, stats = run_traced ~mode:Mode.Baseline w in
  let a = Trace.abort_attribution tr in
  Alcotest.(check int) "conflict aborts" stats.Stats.conflict_aborts
    a.Trace.conflict_aborts;
  let attributed =
    Array.fold_left
      (fun acc row -> Array.fold_left ( + ) acc row)
      0 a.Trace.agg_matrix
  in
  Alcotest.(check int) "matrix + unattributed covers all"
    a.Trace.conflict_aborts
    (attributed + a.Trace.unattributed);
  Alcotest.(check int) "by_ab sums to total" a.Trace.conflict_aborts
    (List.fold_left (fun acc (_, c) -> acc + c) 0 a.Trace.by_ab);
  (* no self-aborts: requester-wins dooms *other* cores *)
  Array.iteri
    (fun i row ->
      Alcotest.(check int) (Printf.sprintf "no self-abort t%d" i) 0 row.(i))
    a.Trace.agg_matrix

(* --- Chrome JSON round trip ------------------------------------------- *)

(* a deliberately small JSON reader: just enough to prove the exporter's
   output is well-formed and re-count its events (no json library in the
   dependency set, by design) *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail_at msg = failwith (Printf.sprintf "%s at byte %d" msg !pos) in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () <> c then fail_at (Printf.sprintf "expected %c" c); advance () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'u' ->
          advance ();
          for _ = 1 to 4 do advance () done;
          Buffer.add_char b '?'
        | c -> Buffer.add_char b c; advance ());
        go ()
      | '\000' -> fail_at "unterminated string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and literal lit v = String.iter expect lit; v
  and number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while is_num_char (peek ()) do advance () done;
    if !pos = start then fail_at "expected a value";
    Num (float_of_string (String.sub s start (!pos - start)))
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then (advance (); Arr [])
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' -> advance (); items (v :: acc)
        | ']' -> advance (); Arr (List.rev (v :: acc))
        | _ -> fail_at "expected , or ]"
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then (advance (); Obj [])
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ((k, v) :: acc)
        | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
        | _ -> fail_at "expected , or }"
      in
      members []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail_at "trailing garbage";
  v

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_chrome_roundtrip () =
  let w = Option.get (Registry.find "list-hi") in
  let tr, stats = run_traced ~mode:Mode.Staggered_hw w in
  let file = Filename.temp_file "stx_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Trace.write_chrome tr ~file;
      let text =
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let doc = parse_json text in
      let events =
        match field "traceEvents" doc with
        | Some (Arr l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (List.length events > 0);
      let count p = List.length (List.filter p events) in
      let abort_instants =
        count (fun e ->
            field "ph" e = Some (Str "i") && field "name" e = Some (Str "abort"))
      in
      Alcotest.(check int) "abort instants = Stats.aborts" stats.Stats.aborts
        abort_instants;
      let commit_spans =
        count (fun e ->
            field "ph" e = Some (Str "X")
            &&
            match field "args" e with
            | Some a -> field "outcome" a = Some (Str "commit")
            | None -> false)
      in
      Alcotest.(check int) "commit spans = Stats.commits" stats.Stats.commits
        commit_spans;
      let lanes =
        count (fun e -> field "name" e = Some (Str "thread_name"))
      in
      Alcotest.(check int) "one metadata lane per core" threads lanes;
      (* spans never run backwards *)
      List.iter
        (fun e ->
          match (field "ph" e, field "dur" e) with
          | Some (Str "X"), Some (Num d) ->
            Alcotest.(check bool) "non-negative duration" true (d >= 0.)
          | _ -> ())
        events)

(* --- %TM accounting under merge ---------------------------------------- *)

(* two sequential shards on the same cores: the old total_cycles * threads
   denominator maxed while the numerator summed, reporting > 100% TM *)
let test_merge_keeps_pct_tx_time_bounded () =
  let mk () =
    let s = Stats.create ~threads:4 in
    s.Stats.total_cycles <- 1000;
    s.Stats.thread_cycles <- 4000;
    s.Stats.tx_mode_cycles <- 3600;
    s
  in
  let one = mk () in
  Alcotest.(check (float 1e-6)) "single shard" 90.0 (Stats.pct_tx_time one);
  let m = Stats.merge (mk ()) (mk ()) in
  Alcotest.(check (float 1e-6)) "merged stays 90%" 90.0 (Stats.pct_tx_time m);
  Alcotest.(check bool) "merged <= 100%" true (Stats.pct_tx_time m <= 100.0)

let test_merged_real_runs_stay_bounded () =
  let w = Option.get (Registry.find "ssca2") in
  let _, a = run_traced ~mode:Mode.Staggered_hw w in
  let _, b = run_traced ~mode:Mode.Baseline w in
  let m = Stats.merge a b in
  Alcotest.(check bool) "merged %TM <= 100" true (Stats.pct_tx_time m <= 100.0);
  Alcotest.(check int) "thread_cycles sum" (a.Stats.thread_cycles + b.Stats.thread_cycles)
    m.Stats.thread_cycles

(* --- protocol violations ------------------------------------------------ *)

(* Hand-built streams, one per violation class, each pinned to the exact
   messages the checker reports. Only the protocol messages are compared:
   the counter reconciliation against an empty [Stats.t] adds its own. *)

let ev_begin ?(ab = 0) tid = Machine.Tx_begin { tid; ab; attempt = 1; probe = false }

let ev_commit ?(ab = 0) tid =
  Machine.Tx_commit
    { tid; ab; cycles = 10; irrevocable = false; rset = 1; wset = 1; probe = false }

let ev_abort ?(ab = 0) tid =
  Machine.Tx_abort
    {
      tid; ab; kind = Machine.Conflict; conf_line = None; conf_pc = None;
      aggressor = None; cycles = 10; rset = 1; wset = 1; probe = false;
    }

let ev_stm_begin ?(ab = 0) tid = Machine.Stm_begin { tid; ab; attempt = 1 }

let ev_stm_commit ?(ab = 0) ?(vcycles = 0) tid =
  Machine.Stm_commit { tid; ab; cycles = 10; vcycles; rset = 1; wset = 1 }

let ev_stm_abort ?(ab = 0) tid =
  Machine.Stm_abort
    { tid; ab; kind = Machine.Stm_validation; cycles = 10; vcycles = 0; rset = 1; wset = 1 }

let ev_acquire tid lock = Machine.Lock_acquired { tid; lock; line = 8 * lock }
let ev_release tid lock = Machine.Lock_released { tid; lock; committed = true }
let ev_lock_attempt tid lock = Machine.Lock_attempt { tid; lock; line = 8 * lock }
let ev_wait tid lock = Machine.Lock_waiting { tid; lock }
let ev_timeout tid lock = Machine.Lock_timeout { tid; lock }
let ev_alp tid = Machine.Alp_executed { tid; ab = 0; site = 0; fired = true }
let ev_dispatch tid req = Machine.Req_dispatch { tid; req; ab = 0 }
let ev_done tid req = Machine.Req_done { tid; req; ab = 0 }

let protocol_errors ?(threads = 2) stream =
  let tr = Trace.create ~threads () in
  List.iter (fun (time, ev) -> Trace.handler tr ~time ev) stream;
  let is_protocol e =
    let starts p = String.length e >= String.length p && String.sub e 0 (String.length p) = p in
    starts "thread " || starts "event names thread"
  in
  match Trace.check tr (Stats.create ~threads) with
  | Ok () -> []
  | Error es -> List.filter is_protocol es

let violation_cases =
  [
    ( "clean lifecycle",
      [
        (1, ev_dispatch 0 4); (2, ev_begin 0); (3, ev_alp 0); (4, ev_lock_attempt 0 3);
        (5, ev_wait 0 3); (9, ev_acquire 0 3); (12, ev_release 0 3); (13, ev_commit 0);
        (13, ev_done 0 4); (2, ev_begin 1); (4, ev_abort 1); (5, Machine.Backoff_start { tid = 1 });
        (8, Machine.Backoff_end { tid = 1 }); (9, ev_stm_begin 1); (12, ev_stm_commit 1);
      ],
      [] );
    ( "begin while an attempt is open",
      [ (1, ev_begin 0); (2, ev_begin 0); (3, ev_commit 0) ],
      [ "thread 0: begin at 2 while an attempt is open" ] );
    ( "software begin while an attempt is open",
      [ (1, ev_begin 0); (2, ev_stm_begin 0); (3, ev_stm_commit 0) ],
      [ "thread 0: software begin at 2 while an attempt is open" ] );
    ( "commit with no open attempt",
      [ (5, ev_commit 0) ],
      [ "thread 0: commit at 5 with no open attempt" ] );
    ( "abort with no open attempt",
      [ (5, ev_abort 0) ],
      [ "thread 0: abort at 5 with no open attempt" ] );
    ( "software commit with no open attempt",
      [ (5, ev_stm_commit 1) ],
      [ "thread 1: software commit at 5 with no open attempt" ] );
    ( "software abort with no open attempt",
      [ (5, ev_stm_abort 1) ],
      [ "thread 1: software abort at 5 with no open attempt" ] );
    ( "commit ab mismatch",
      [ (1, ev_begin ~ab:0 0); (2, ev_commit ~ab:1 0) ],
      [ "thread 0: commit names ab1 but the open attempt is ab0" ] );
    ( "abort ab mismatch",
      [ (1, ev_begin ~ab:2 0); (2, ev_abort ~ab:1 0) ],
      [ "thread 0: abort names ab1 but the open attempt is ab2" ] );
    ( "software commit ab mismatch",
      [ (1, ev_stm_begin ~ab:0 0); (2, ev_stm_commit ~ab:1 0) ],
      [ "thread 0: software commit names ab1 but the open attempt is ab0" ] );
    ( "software abort ab mismatch",
      [ (1, ev_stm_begin ~ab:0 0); (2, ev_stm_abort ~ab:3 0) ],
      [ "thread 0: software abort names ab3 but the open attempt is ab0" ] );
    ( "hardware commit closes a software attempt",
      [ (1, ev_stm_begin 0); (2, ev_commit 0) ],
      [ "thread 0: hardware commit at 2 closes a software attempt" ] );
    ( "hardware abort closes a software attempt",
      [ (1, ev_stm_begin 0); (2, ev_abort 0) ],
      [ "thread 0: hardware abort at 2 closes a software attempt" ] );
    ( "software commit closes a hardware attempt",
      [ (1, ev_begin 0); (2, ev_stm_commit 0) ],
      [ "thread 0: software commit at 2 closes a hardware attempt" ] );
    ( "software abort closes a hardware attempt",
      [ (1, ev_begin 0); (2, ev_stm_abort 0) ],
      [ "thread 0: software abort at 2 closes a hardware attempt" ] );
    ( "lock held at commit",
      [ (1, ev_begin 0); (2, ev_lock_attempt 0 3); (3, ev_acquire 0 3); (4, ev_commit 0) ],
      [ "thread 0: advisory lock still held at commit (time 4)" ] );
    ( "lock held at abort",
      [ (1, ev_begin 0); (3, ev_acquire 0 3); (4, ev_abort 0); (5, ev_release 0 3) ],
      [
        "thread 0: advisory lock still held at abort (time 4)";
        "thread 0: lock released at 5 outside a transaction";
      ] );
    ( "second acquire after a release",
      [
        (1, ev_begin 0); (2, ev_acquire 0 3); (3, ev_release 0 3); (4, ev_acquire 0 5);
        (5, ev_release 0 5); (6, ev_commit 0);
      ],
      [ "thread 0: more than one advisory lock acquisition in one attempt" ] );
    ( "acquire while holding a lock",
      [
        (1, ev_begin 0); (2, ev_acquire 0 3); (3, ev_acquire 0 5); (4, ev_release 0 5);
        (5, ev_commit 0);
      ],
      [
        "thread 0: second advisory lock acquired at 3";
        "thread 0: more than one advisory lock acquisition in one attempt";
      ] );
    ( "release of a lock never taken",
      [ (1, ev_begin 0); (2, ev_release 0 3); (3, ev_commit 0) ],
      [ "thread 0: released lock 3 it does not hold" ] );
    ( "release of another lock",
      [
        (1, ev_begin 0); (2, ev_acquire 0 3); (3, ev_release 0 4); (4, ev_release 0 3);
        (5, ev_commit 0);
      ],
      [ "thread 0: released lock 4 it does not hold" ] );
    ( "release outside a transaction",
      [ (1, ev_release 0 3) ],
      [ "thread 0: lock released at 1 outside a transaction" ] );
    ( "timeout without a wait",
      [ (1, ev_begin 0); (2, ev_timeout 0 3); (3, ev_commit 0) ],
      [ "thread 0: timeout on lock 3 it was not waiting for" ] );
    ( "timeout on another lock",
      [ (1, ev_begin 0); (2, ev_wait 0 4); (3, ev_timeout 0 3); (4, ev_timeout 0 4); (5, ev_commit 0) ],
      [
        "thread 0: timeout on lock 3 it was not waiting for";
        "thread 0: timeout on lock 4 it was not waiting for";
      ] );
    ( "ALP outside a transaction",
      [ (1, ev_alp 0) ],
      [ "thread 0: ALP executed at 1 outside a transaction" ] );
    ( "ALP inside a software attempt",
      [ (1, ev_stm_begin 0); (2, ev_alp 0); (3, ev_stm_commit 0) ],
      [ "thread 0: ALP executed at 2 inside a software attempt" ] );
    ( "lock attempt outside a transaction",
      [ (1, ev_lock_attempt 0 3) ],
      [ "thread 0: lock attempt at 1 outside a transaction" ] );
    ( "lock attempt inside a software attempt",
      [ (1, ev_stm_begin 0); (2, ev_lock_attempt 0 3); (3, ev_stm_commit 0) ],
      [ "thread 0: advisory lock attempt at 2 inside a software attempt" ] );
    ( "lock attempt while holding a lock",
      [
        (1, ev_begin 0); (2, ev_acquire 0 3); (3, ev_lock_attempt 0 5); (4, ev_release 0 3);
        (5, ev_commit 0);
      ],
      [ "thread 0: lock attempt at 3 while already holding a lock" ] );
    ( "acquire outside a transaction",
      [ (1, ev_acquire 0 3); (2, ev_release 0 3); (3, ev_begin 0); (4, ev_commit 0) ],
      [
        "thread 0: lock acquired at 1 outside a transaction";
        "thread 0: lock released at 2 outside a transaction";
      ] );
    ( "acquire inside a software attempt",
      [ (1, ev_stm_begin 0); (2, ev_acquire 0 3); (3, ev_release 0 3); (4, ev_stm_commit 0) ],
      [ "thread 0: advisory lock acquired at 2 inside a software attempt" ] );
    ( "wait outside a transaction",
      [ (1, ev_wait 0 3); (2, ev_timeout 0 3) ],
      [ "thread 0: lock wait at 1 outside a transaction" ] );
    ( "irrevocable entry inside an attempt",
      [ (1, ev_begin 0); (2, Machine.Tx_irrevocable { tid = 0; ab = 0 }); (3, ev_commit 0) ],
      [ "thread 0: irrevocable entry at 2 inside an open attempt" ] );
    ( "nested backoff",
      [
        (1, Machine.Backoff_start { tid = 0 }); (2, Machine.Backoff_start { tid = 0 });
        (3, Machine.Backoff_end { tid = 0 }); (4, Machine.Backoff_end { tid = 0 });
      ],
      [ "thread 0: nested backoff at 2"; "thread 0: backoff ended at 4 without a start" ] );
    ( "backoff end with no start",
      [ (1, Machine.Backoff_end { tid = 1 }) ],
      [ "thread 1: backoff ended at 1 without a start" ] );
    ( "backoff inside an attempt",
      [
        (1, ev_begin 0); (2, Machine.Backoff_start { tid = 0 });
        (3, Machine.Backoff_end { tid = 0 }); (4, ev_commit 0);
      ],
      [ "thread 0: backoff started at 2 inside an open attempt" ] );
    ( "dispatch while a request is in flight",
      [ (1, ev_dispatch 0 7); (2, ev_dispatch 0 8); (3, ev_done 0 8) ],
      [ "thread 0: request 8 dispatched at 2 while request 7 is in flight" ] );
    ( "dispatch inside an attempt",
      [ (1, ev_begin 0); (2, ev_dispatch 0 7); (3, ev_commit 0); (4, ev_done 0 7) ],
      [ "thread 0: request 7 dispatched at 2 inside an open attempt" ] );
    ( "done for another request",
      [ (1, ev_dispatch 0 7); (2, ev_done 0 8); (3, ev_done 0 7) ],
      [
        "thread 0: request 8 done at 2 but request 7 is in flight";
        "thread 0: request 7 done at 3 without a dispatch";
      ] );
    ( "done with no dispatch",
      [ (1, ev_done 1 7) ],
      [ "thread 1: request 7 done at 1 without a dispatch" ] );
    ( "clock going backwards",
      [ (5, ev_begin 0); (3, ev_begin 1); (3, ev_commit 0); (4, ev_commit 1) ],
      [ "thread 0: clock went backwards (3 after 5)" ] );
    ( "tid out of range",
      [ (1, ev_begin 2); (2, Machine.Backoff_end { tid = -1 }); (3, ev_commit 2) ],
      [
        "event names thread 2 but the trace covers 2 threads";
        "event names thread -1 but the trace covers 2 threads";
        "event names thread 2 but the trace covers 2 threads";
      ] );
    ( "software commit over-charging validation",
      [ (1, ev_stm_begin 0); (2, ev_stm_commit ~vcycles:20 0) ],
      [ "thread 0: software commit at 2 has vcycles 20 > cycles 10" ] );
    ( "attempt, backoff and request open at the end",
      [
        (1, ev_begin 0); (2, ev_wait 0 3); (1, Machine.Backoff_start { tid = 1 });
        (2, ev_dispatch 1 9);
      ],
      [
        "thread 0: attempt still open at end of trace";
        "thread 1: backoff still open at end of trace";
        "thread 1: request 9 still in flight at end of trace";
      ] );
  ]

let test_check_pins_violations () =
  List.iter
    (fun (name, stream, want) ->
      Alcotest.(check (list string)) name want (protocol_errors stream))
    violation_cases

(* --- byte pins on the Chrome export and the metrics registry ----------- *)

(* Two fixed cells: a default-bundle Staggered run and one under the
   hybrid HTM/STM fallback. Between them the streams hold software
   commits, lock-wait episodes and aborts that land mid-wait, so the
   digests cover every span the exporter and the collector close. *)
let pinned_cells =
  [
    ( "genome", 4, Stx_policy.default,
      "cdcabda61378ec03b522f33f60266cdd", "49a48a7935eb461c0c5ba8a82010315a" );
    ( "labyrinth", 8,
      Result.get_ok (Stx_policy.of_label "requester-wins+unbounded+htm-stm-lock"),
      "74f6e0c07a0149c80600172a59918895", "531efa22b4b9eaf7a0edd0a46523b55d" );
  ]

let test_chrome_and_registry_pinned () =
  let stm_commits = ref 0 and waits = ref 0 and aborts_mid_wait = ref 0 in
  List.iter
    (fun (name, threads, htm_policy, chrome_digest, registry_digest) ->
      let w = Option.get (Registry.find name) in
      let mode = Mode.Staggered_hw in
      let o =
        Stx_harness.Observed.run ~seed:3 ~htm_policy
          ~cfg:(Stx_machine.Config.with_cores threads Stx_machine.Config.default)
          ~mode
          (Workload.spec ~instrument:true ~scale:0.05 w)
      in
      Alcotest.(check (list string)) (name ^ " observed checks") []
        o.Stx_harness.Observed.errors;
      let tr = o.Stx_harness.Observed.trace in
      let waiting = Array.make threads false in
      Trace.iter tr (fun ~time:_ ev ->
          match ev with
          | Machine.Stm_commit _ -> incr stm_commits
          | Machine.Lock_waiting { tid; _ } ->
            incr waits;
            waiting.(tid) <- true
          | Machine.Lock_acquired { tid; _ } | Machine.Lock_timeout { tid; _ } ->
            waiting.(tid) <- false
          | Machine.Tx_abort { tid; _ } ->
            if waiting.(tid) then incr aborts_mid_wait;
            waiting.(tid) <- false
          | _ -> ());
      let hex s = Digest.to_hex (Digest.string s) in
      Alcotest.(check string) (name ^ " chrome digest") chrome_digest
        (hex (Trace.to_chrome_json tr));
      Alcotest.(check string) (name ^ " registry digest") registry_digest
        (hex (String.concat "\n" (Stx_metrics.Registry.encode o.Stx_harness.Observed.metrics))))
    pinned_cells;
  Alcotest.(check bool) "a software commit" true (!stm_commits > 0);
  Alcotest.(check bool) "a lock-wait episode" true (!waits > 0);
  Alcotest.(check bool) "an abort inside a wait episode" true (!aborts_mid_wait > 0)

let suite =
  [
    Alcotest.test_case "checker green on every workload x mode" `Slow
      test_check_green_everywhere;
    Alcotest.test_case "checker detects corrupted counters" `Quick
      test_check_detects_corruption;
    Alcotest.test_case "ring mode bounds memory, refuses to check" `Quick
      test_ring_bounds_and_refuses;
    Alcotest.test_case "attribution accounts every conflict" `Quick
      test_attribution_accounts_every_conflict;
    Alcotest.test_case "chrome JSON round trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "merge keeps %TM bounded" `Quick
      test_merge_keeps_pct_tx_time_bounded;
    Alcotest.test_case "merged real runs stay bounded" `Quick
      test_merged_real_runs_stay_bounded;
    Alcotest.test_case "checker pins each protocol violation" `Quick
      test_check_pins_violations;
    Alcotest.test_case "chrome and registry bytes pinned" `Quick
      test_chrome_and_registry_pinned;
  ]
