open Stx_sim

(* times and events in two parallel arrays: no per-event record *)
type t = {
  n_threads : int;
  capacity : int; (* 0 = unbounded (full capture) *)
  mutable times : int array;
  mutable evs : Machine.event array;
  mutable len : int;
  mutable head : int;
  mutable n_dropped : int;
}

let dummy = Machine.Backoff_start { tid = 0 }

let create ?capacity ~threads () =
  let capacity =
    match capacity with
    | None -> 0
    | Some c ->
      if c <= 0 then invalid_arg "Trace.create: capacity must be positive";
      c
  in
  let initial = if capacity = 0 then 1024 else capacity in
  {
    n_threads = threads;
    capacity;
    times = Array.make initial 0;
    evs = Array.make initial dummy;
    len = 0;
    head = 0;
    n_dropped = 0;
  }

let put t i ~time ev =
  t.times.(i) <- time;
  t.evs.(i) <- ev

let handler t ~time ev =
  if t.capacity = 0 then begin
    if t.len = Array.length t.evs then begin
      let grow a fill =
        let bigger = Array.make (2 * t.len) fill in
        Array.blit a 0 bigger 0 t.len;
        bigger
      in
      t.times <- grow t.times 0;
      t.evs <- grow t.evs dummy
    end;
    put t t.len ~time ev;
    t.len <- t.len + 1
  end
  else if t.len < t.capacity then begin
    put t ((t.head + t.len) mod t.capacity) ~time ev;
    t.len <- t.len + 1
  end
  else begin
    (* ring full: the oldest event makes room *)
    put t t.head ~time ev;
    t.head <- (t.head + 1) mod t.capacity;
    t.n_dropped <- t.n_dropped + 1
  end

let length t = t.len
let dropped t = t.n_dropped
let threads t = t.n_threads

let iter t f =
  let cap = Array.length t.evs in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    f ~time:t.times.(j) t.evs.(j)
  done

let events t =
  let acc = ref [] in
  iter t (fun ~time ev -> acc := (time, ev) :: !acc);
  List.rev !acc

(* --- invariant checking ------------------------------------------------ *)

type ab_tally = {
  mutable t_commits : int;
  mutable t_aborts : int;
  mutable t_locks : int;
  mutable t_irrevocable : int;
}

let check t (stats : Stats.t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if t.n_dropped > 0 then begin
    err
      "%d events dropped by the ring buffer; a truncated stream cannot be \
       reconciled (use full capture)"
      t.n_dropped;
    Error (List.rev !errs)
  end
  else begin
    let lc =
      Lifecycle.create ~threads:t.n_threads ~violation:(fun s -> errs := s :: !errs) ()
    in
    let commits = ref 0 and aborts = ref 0 in
    let conflict_aborts = ref 0 and lock_sub_aborts = ref 0 and explicit_aborts = ref 0 in
    let capacity_aborts = ref 0 and stm_conflict_aborts = ref 0 in
    let stm_commits = ref 0 and stm_aborts = ref 0 in
    let stm_validation = ref 0 and stm_hw_owned = ref 0 and stm_locksub = ref 0 in
    let stm_vcycles = ref 0 in
    let irrevocable = ref 0 and acquires = ref 0 and timeouts = ref 0 in
    let alps = ref 0 and lock_attempts = ref 0 in
    let useful = ref 0 and wasted = ref 0 and backoff = ref 0 in
    let abs : (int, ab_tally) Hashtbl.t = Hashtbl.create 8 in
    let ab_tally id =
      match Hashtbl.find_opt abs id with
      | Some a -> a
      | None ->
        let a = { t_commits = 0; t_aborts = 0; t_locks = 0; t_irrevocable = 0 } in
        Hashtbl.add abs id a;
        a
    in
    let vcycles_bound ~tid ~time ~what ~cycles ~vcycles =
      if vcycles > cycles then
        err "thread %d: software %s at %d has vcycles %d > cycles %d" tid what time
          vcycles cycles
    in
    iter t (fun ~time ev ->
        let th = Lifecycle.thread lc (Lifecycle.event_tid ev) in
        (* read before [step] closes the backoff *)
        let backoff_since = th.Lifecycle.backoff_since in
        if Lifecycle.step lc th ~time ev then
          match ev with
          | Machine.Tx_begin _ | Machine.Stm_begin _ | Machine.Lock_released _
          | Machine.Lock_waiting _ | Machine.Backoff_start _ | Machine.Req_dispatch _
          | Machine.Req_done _ ->
            ()
          | Machine.Tx_commit { ab; cycles; irrevocable = irr; _ } ->
            incr commits;
            useful := !useful + cycles;
            let tally = ab_tally ab in
            tally.t_commits <- tally.t_commits + 1;
            if irr then tally.t_irrevocable <- tally.t_irrevocable + 1
          | Machine.Tx_abort { ab; kind; cycles; _ } ->
            incr aborts;
            (match kind with
            | Machine.Conflict -> incr conflict_aborts
            | Machine.Lock_subscription -> incr lock_sub_aborts
            | Machine.Capacity -> incr capacity_aborts
            | Machine.Explicit -> incr explicit_aborts
            | Machine.Stm_conflict -> incr stm_conflict_aborts);
            wasted := !wasted + cycles;
            (ab_tally ab).t_aborts <- (ab_tally ab).t_aborts + 1
          | Machine.Stm_commit { tid; ab; cycles; vcycles; _ } ->
            vcycles_bound ~tid ~time ~what:"commit" ~cycles ~vcycles;
            incr commits;
            incr stm_commits;
            stm_vcycles := !stm_vcycles + vcycles;
            useful := !useful + cycles;
            (ab_tally ab).t_commits <- (ab_tally ab).t_commits + 1
          | Machine.Stm_abort { tid; ab; kind; cycles; vcycles; _ } ->
            vcycles_bound ~tid ~time ~what:"abort" ~cycles ~vcycles;
            incr aborts;
            incr stm_aborts;
            stm_vcycles := !stm_vcycles + vcycles;
            (match kind with
            | Machine.Stm_validation -> incr stm_validation
            | Machine.Stm_hw_owned -> incr stm_hw_owned
            | Machine.Stm_locksub -> incr stm_locksub
            | Machine.Stm_explicit -> ());
            wasted := !wasted + cycles;
            (ab_tally ab).t_aborts <- (ab_tally ab).t_aborts + 1
          | Machine.Tx_irrevocable _ -> incr irrevocable
          | Machine.Alp_executed _ -> incr alps
          | Machine.Lock_attempt _ -> incr lock_attempts
          | Machine.Lock_acquired _ ->
            if th.Lifecycle.ab >= 0 then
              (ab_tally th.Lifecycle.ab).t_locks <- (ab_tally th.Lifecycle.ab).t_locks + 1;
            incr acquires
          | Machine.Lock_timeout _ -> incr timeouts
          | Machine.Backoff_end _ ->
            if backoff_since >= 0 then backoff := !backoff + (time - backoff_since));
    Lifecycle.finish lc;
    (* reconcile the replayed counters against the inline ones *)
    let eq name trace stats =
      if trace <> stats then err "%s: trace says %d, stats say %d" name trace stats
    in
    eq "commits" !commits stats.Stats.commits;
    eq "aborts" !aborts stats.Stats.aborts;
    eq "conflict aborts" !conflict_aborts stats.Stats.conflict_aborts;
    eq "lock-subscription aborts" !lock_sub_aborts stats.Stats.lock_sub_aborts;
    eq "capacity aborts" !capacity_aborts stats.Stats.capacity_aborts;
    eq "explicit aborts" !explicit_aborts stats.Stats.explicit_aborts;
    eq "stm-conflict aborts" !stm_conflict_aborts stats.Stats.stm_conflict_aborts;
    eq "stm commits" !stm_commits stats.Stats.stm_commits;
    eq "stm aborts" !stm_aborts stats.Stats.stm_aborts;
    eq "stm validation aborts" !stm_validation stats.Stats.stm_validation_aborts;
    eq "stm hw-owned aborts" !stm_hw_owned stats.Stats.stm_hw_owned_aborts;
    eq "stm lock-subscription aborts" !stm_locksub stats.Stats.stm_locksub_aborts;
    eq "stm validation cycles" !stm_vcycles stats.Stats.stm_validation_cycles;
    eq "irrevocable entries" !irrevocable stats.Stats.irrevocable_entries;
    eq "lock acquires" !acquires stats.Stats.lock_acquires;
    eq "lock timeouts" !timeouts stats.Stats.lock_timeouts;
    eq "ALPs executed" !alps stats.Stats.alps_executed;
    eq "ALP lock attempts" !lock_attempts stats.Stats.alps_lock_attempts;
    eq "useful cycles" !useful stats.Stats.useful_cycles;
    eq "wasted cycles" !wasted stats.Stats.wasted_cycles;
    eq "backoff cycles" !backoff stats.Stats.backoff_cycles;
    if stats.Stats.tx_mode_cycles < !useful + !wasted + !backoff then
      err "tx_mode_cycles (%d) below useful+wasted+backoff (%d)"
        stats.Stats.tx_mode_cycles
        (!useful + !wasted + !backoff);
    if stats.Stats.thread_cycles > 0 && stats.Stats.tx_mode_cycles > stats.Stats.thread_cycles
    then
      err "tx_mode_cycles (%d) exceeds thread_cycles (%d)" stats.Stats.tx_mode_cycles
        stats.Stats.thread_cycles;
    Hashtbl.iter
      (fun id (tr : ab_tally) ->
        match Hashtbl.find_opt stats.Stats.per_ab id with
        | None -> err "ab%d: seen in trace but absent from stats" id
        | Some (st : Stats.ab_stat) ->
          eq (Printf.sprintf "ab%d commits" id) tr.t_commits st.Stats.ab_commits;
          eq (Printf.sprintf "ab%d aborts" id) tr.t_aborts st.Stats.ab_aborts;
          eq (Printf.sprintf "ab%d locks" id) tr.t_locks st.Stats.ab_locks;
          eq
            (Printf.sprintf "ab%d irrevocable" id)
            tr.t_irrevocable st.Stats.ab_irrevocable)
      abs;
    Hashtbl.iter
      (fun id (st : Stats.ab_stat) ->
        if
          (not (Hashtbl.mem abs id))
          && st.Stats.ab_commits + st.Stats.ab_aborts + st.Stats.ab_locks
             + st.Stats.ab_irrevocable
             > 0
        then err "ab%d: counted in stats but absent from trace" id)
      stats.Stats.per_ab;
    match List.rev !errs with [] -> Ok () | es -> Error es
  end

(* --- abort attribution ------------------------------------------------- *)

type attribution = {
  agg_matrix : int array array;
  unattributed : int;
  by_line : (int * int) list;
  by_pc : (int * int) list;
  by_ab : (int * int) list;
  conflict_aborts : int;
}

let abort_attribution t =
  let n = t.n_threads in
  let matrix = Array.make_matrix n n 0 in
  let unattributed = ref 0 and total = ref 0 in
  let lines = Hashtbl.create 32 in
  let pcs = Hashtbl.create 32 in
  let abs = Hashtbl.create 8 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  iter t (fun ~time:_ ev ->
      match ev with
      | Machine.Tx_abort
          { tid; ab; kind = Machine.Conflict; conf_line; conf_pc; aggressor; _ } ->
        incr total;
        bump abs ab;
        (match conf_line with Some l -> bump lines l | None -> ());
        (match conf_pc with Some pc -> bump pcs pc | None -> ());
        (match aggressor with
        | Some a when a >= 0 && a < n && tid >= 0 && tid < n ->
          matrix.(a).(tid) <- matrix.(a).(tid) + 1
        | _ -> incr unattributed)
      | _ -> ());
  (* count ties broken by key, so the report is hash-seed independent *)
  let ranked = Stx_util.Stat.ranked in
  {
    agg_matrix = matrix;
    unattributed = !unattributed;
    by_line = ranked lines;
    by_pc = ranked pcs;
    by_ab = ranked abs;
    conflict_aborts = !total;
  }

(* --- Chrome trace_event export ----------------------------------------- *)

let to_chrome_json t =
  let module J = Stx_util.Json in
  let b = Buffer.create 65536 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b (J.to_string (J.Obj fields))
  in
  let str s = J.Str s and int i = J.Int i and bool v = J.Bool v in
  let opt_int = function Some i -> J.Int i | None -> J.Null in
  let event ~name ~ph ~ts extra ~tid ~args =
    obj
      ([ ("name", str name); ("cat", str "sim"); ("ph", str ph); ("ts", int ts) ]
      @ extra
      @ [ ("pid", int 0); ("tid", int tid); ("args", J.Obj args) ])
  in
  let span ~name ~ts ~dur = event ~name ~ph:"X" ~ts [ ("dur", int dur) ] in
  let instant ~name ~ts = event ~name ~ph:"i" ~ts [ ("s", str "t") ] in
  Buffer.add_string b "{\"traceEvents\":[\n";
  for tid = 0 to t.n_threads - 1 do
    obj
      [
        ("name", str "thread_name"); ("ph", str "M"); ("pid", int 0);
        ("tid", int tid);
        ("args", J.Obj [ ("name", str (Printf.sprintf "core %d" tid)) ]);
      ]
  done;
  let lc = Lifecycle.create ~threads:t.n_threads () in
  iter t (fun ~time ev ->
      let open Lifecycle in
      let tid = event_tid ev in
      (* spans close from the thread's state before this event *)
      let th = thread lc tid in
      let close_wait outcome =
        if th.wait_lock >= 0 then
          span
            ~name:(Printf.sprintf "wait lock%d" th.wait_lock)
            ~ts:th.wait_since ~dur:(time - th.wait_since) ~tid
            ~args:[ ("lock", int th.wait_lock); ("outcome", str outcome) ]
      in
      let close_tx ~ab ~outcome extra =
        if th.ab >= 0 then
          span
            ~name:(Printf.sprintf "ab%d" ab)
            ~ts:th.start ~dur:(time - th.start) ~tid
            ~args:
              ([ ("attempt", int th.attempt); ("probe", bool th.probe);
                 ("outcome", str outcome) ]
              @ extra)
      in
      (match ev with
      | Machine.Tx_begin _ | Machine.Stm_begin _ | Machine.Lock_attempt _
      | Machine.Lock_waiting _ | Machine.Backoff_start _ | Machine.Req_dispatch _ ->
        ()
      | Machine.Tx_commit { ab; irrevocable; rset; wset; _ } ->
        close_tx ~ab ~outcome:"commit"
          [ ("irrevocable", bool irrevocable); ("rset", int rset); ("wset", int wset) ]
      | Machine.Tx_abort { ab; kind; conf_line; conf_pc; aggressor; rset; wset; _ } ->
        close_wait "abort";
        close_tx ~ab ~outcome:"abort" [];
        instant ~name:"abort" ~ts:time ~tid
          ~args:
            [
              ("reason", str (abort_label kind)); ("victim", int tid);
              ("aggressor", opt_int aggressor); ("conf_line", opt_int conf_line);
              ("conf_pc", opt_int conf_pc); ("rset", int rset); ("wset", int wset);
            ]
      | Machine.Tx_irrevocable { ab; _ } ->
        instant ~name:"irrevocable" ~ts:time ~tid ~args:[ ("ab", int ab) ]
      | Machine.Alp_executed { ab; site; fired; _ } ->
        instant ~name:"alp" ~ts:time ~tid
          ~args:[ ("ab", int ab); ("site", int site); ("fired", bool fired) ]
      | Machine.Lock_acquired _ -> close_wait "acquired"
      | Machine.Lock_released { lock; committed; _ } ->
        if th.lock = lock then
          span
            ~name:(Printf.sprintf "lock%d" lock)
            ~ts:th.lock_since ~dur:(time - th.lock_since) ~tid
            ~args:[ ("line", int th.lock_line); ("committed", bool committed) ]
      | Machine.Lock_timeout _ -> close_wait "timeout"
      | Machine.Backoff_end _ ->
        if th.backoff_since >= 0 then
          span ~name:"backoff" ~ts:th.backoff_since
            ~dur:(time - th.backoff_since) ~tid ~args:[]
      | Machine.Req_done { req; ab; _ } ->
        if th.req = req then
          span ~name:"request" ~ts:th.req_since
            ~dur:(time - th.req_since) ~tid
            ~args:[ ("req", int req); ("ab", int ab) ]
      | Machine.Stm_commit { ab; vcycles; rset; wset; _ } ->
        close_tx ~ab ~outcome:"commit"
          [ ("tier", str "stm"); ("vcycles", int vcycles); ("rset", int rset);
            ("wset", int wset) ]
      | Machine.Stm_abort { ab; kind; vcycles; rset; wset; _ } ->
        close_tx ~ab ~outcome:"abort" [ ("tier", str "stm") ];
        instant ~name:"abort" ~ts:time ~tid
          ~args:
            [
              ("reason", str (stm_abort_label kind)); ("victim", int tid);
              ("vcycles", int vcycles); ("rset", int rset); ("wset", int wset);
            ]);
      ignore (step lc th ~time ev));
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome t ~file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json t))

(* --- raw event codec ---------------------------------------------------- *)

(* One event per line, whitespace-separated, a versioned header up front.
   The Chrome export is for human eyes; this form round-trips, so a capture
   written by one process (stx_run --raw-trace) can be replayed by another
   (stx_repro lint --validate-trace). Option fields print as "-". *)

let codec_magic = "stx-trace"

(* v2 added read/write-set sizes to commit and abort lines; v3 added the
   "capacity" abort kind (bounded-capacity policy overflow); v4 added the
   req-dispatch/req-done lines of request-driven serving runs; v5 added
   the "stmconf" abort kind and the stm-begin/stm-commit/stm-abort lines
   of the software fallback tier *)
let codec_version = 5

let opt = function None -> "-" | Some v -> string_of_int v
let flag b = if b then "1" else "0"

let kind_tag = function
  | Machine.Conflict -> "conflict"
  | Machine.Lock_subscription -> "locksub"
  | Machine.Capacity -> "capacity"
  | Machine.Explicit -> "explicit"
  | Machine.Stm_conflict -> "stmconf"

let stm_kind_tag = function
  | Machine.Stm_validation -> "validation"
  | Machine.Stm_hw_owned -> "hwowned"
  | Machine.Stm_locksub -> "locksub"
  | Machine.Stm_explicit -> "explicit"

let event_line time ev =
  match ev with
  | Machine.Tx_begin { tid; ab; attempt; probe } ->
    Printf.sprintf "%d begin %d %d %d %s" time tid ab attempt (flag probe)
  | Machine.Tx_commit { tid; ab; cycles; irrevocable; rset; wset; probe } ->
    Printf.sprintf "%d commit %d %d %d %s %d %d %s" time tid ab cycles
      (flag irrevocable) rset wset (flag probe)
  | Machine.Tx_abort
      { tid; ab; kind; conf_line; conf_pc; aggressor; cycles; rset; wset; probe }
    ->
    Printf.sprintf "%d abort %d %d %s %s %s %s %d %d %d %s" time tid ab
      (kind_tag kind) (opt conf_line) (opt conf_pc) (opt aggressor) cycles rset
      wset (flag probe)
  | Machine.Tx_irrevocable { tid; ab } ->
    Printf.sprintf "%d irrevocable %d %d" time tid ab
  | Machine.Alp_executed { tid; ab; site; fired } ->
    Printf.sprintf "%d alp %d %d %d %s" time tid ab site (flag fired)
  | Machine.Lock_attempt { tid; lock; line } ->
    Printf.sprintf "%d lock-attempt %d %d %d" time tid lock line
  | Machine.Lock_acquired { tid; lock; line } ->
    Printf.sprintf "%d lock-acquired %d %d %d" time tid lock line
  | Machine.Lock_released { tid; lock; committed } ->
    Printf.sprintf "%d lock-released %d %d %s" time tid lock (flag committed)
  | Machine.Lock_waiting { tid; lock } ->
    Printf.sprintf "%d lock-waiting %d %d" time tid lock
  | Machine.Lock_timeout { tid; lock } ->
    Printf.sprintf "%d lock-timeout %d %d" time tid lock
  | Machine.Backoff_start { tid } -> Printf.sprintf "%d backoff-start %d" time tid
  | Machine.Backoff_end { tid } -> Printf.sprintf "%d backoff-end %d" time tid
  | Machine.Req_dispatch { tid; req; ab } ->
    Printf.sprintf "%d req-dispatch %d %d %d" time tid req ab
  | Machine.Req_done { tid; req; ab } ->
    Printf.sprintf "%d req-done %d %d %d" time tid req ab
  | Machine.Stm_begin { tid; ab; attempt } ->
    Printf.sprintf "%d stm-begin %d %d %d" time tid ab attempt
  | Machine.Stm_commit { tid; ab; cycles; vcycles; rset; wset } ->
    Printf.sprintf "%d stm-commit %d %d %d %d %d %d" time tid ab cycles vcycles
      rset wset
  | Machine.Stm_abort { tid; ab; kind; cycles; vcycles; rset; wset } ->
    Printf.sprintf "%d stm-abort %d %d %s %d %d %d %d" time tid ab
      (stm_kind_tag kind) cycles vcycles rset wset

let write_events ?(meta = []) t ~file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s %d\n" codec_magic codec_version;
      Printf.fprintf oc "threads %d\n" t.n_threads;
      Printf.fprintf oc "dropped %d\n" t.n_dropped;
      List.iter
        (fun (k, v) ->
          if String.contains k ' ' || String.contains k '\n' || String.contains v '\n'
          then invalid_arg "Trace.write_events: meta keys/values must be line-safe";
          Printf.fprintf oc "meta %s %s\n" k v)
        meta;
      Printf.fprintf oc "events %d\n" t.len;
      iter t (fun ~time ev -> output_string oc (event_line time ev ^ "\n")))

exception Codec_error of string

let codec_fail fmt = Printf.ksprintf (fun s -> raise (Codec_error s)) fmt

let parse_event line lineno =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let num s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> codec_fail "line %d: expected an integer, got %S" lineno s
  in
  let num_opt s = if s = "-" then None else Some (num s) in
  let bool s =
    match s with
    | "0" -> false
    | "1" -> true
    | _ -> codec_fail "line %d: expected a 0/1 flag, got %S" lineno s
  in
  let kind s =
    match s with
    | "conflict" -> Machine.Conflict
    | "locksub" -> Machine.Lock_subscription
    | "capacity" -> Machine.Capacity
    | "explicit" -> Machine.Explicit
    | "stmconf" -> Machine.Stm_conflict
    | _ -> codec_fail "line %d: unknown abort kind %S" lineno s
  in
  let stm_kind s =
    match s with
    | "validation" -> Machine.Stm_validation
    | "hwowned" -> Machine.Stm_hw_owned
    | "locksub" -> Machine.Stm_locksub
    | "explicit" -> Machine.Stm_explicit
    | _ -> codec_fail "line %d: unknown software abort kind %S" lineno s
  in
  match fields with
  | time :: "begin" :: [ tid; ab; attempt; probe ] ->
    ( num time,
      Machine.Tx_begin
        { tid = num tid; ab = num ab; attempt = num attempt; probe = bool probe } )
  | time :: "commit" :: [ tid; ab; cycles; irrevocable; rset; wset; probe ] ->
    ( num time,
      Machine.Tx_commit
        {
          tid = num tid;
          ab = num ab;
          cycles = num cycles;
          irrevocable = bool irrevocable;
          rset = num rset;
          wset = num wset;
          probe = bool probe;
        } )
  | time
    :: "abort"
    :: [ tid; ab; k; conf_line; conf_pc; aggressor; cycles; rset; wset; probe ]
    ->
    ( num time,
      Machine.Tx_abort
        {
          tid = num tid;
          ab = num ab;
          kind = kind k;
          conf_line = num_opt conf_line;
          conf_pc = num_opt conf_pc;
          aggressor = num_opt aggressor;
          cycles = num cycles;
          rset = num rset;
          wset = num wset;
          probe = bool probe;
        } )
  | time :: "irrevocable" :: [ tid; ab ] ->
    (num time, Machine.Tx_irrevocable { tid = num tid; ab = num ab })
  | time :: "alp" :: [ tid; ab; site; fired ] ->
    ( num time,
      Machine.Alp_executed
        { tid = num tid; ab = num ab; site = num site; fired = bool fired } )
  | time :: "lock-attempt" :: [ tid; lock; line ] ->
    ( num time,
      Machine.Lock_attempt { tid = num tid; lock = num lock; line = num line } )
  | time :: "lock-acquired" :: [ tid; lock; line ] ->
    ( num time,
      Machine.Lock_acquired { tid = num tid; lock = num lock; line = num line } )
  | time :: "lock-released" :: [ tid; lock; committed ] ->
    ( num time,
      Machine.Lock_released
        { tid = num tid; lock = num lock; committed = bool committed } )
  | time :: "lock-waiting" :: [ tid; lock ] ->
    (num time, Machine.Lock_waiting { tid = num tid; lock = num lock })
  | time :: "lock-timeout" :: [ tid; lock ] ->
    (num time, Machine.Lock_timeout { tid = num tid; lock = num lock })
  | time :: "backoff-start" :: [ tid ] ->
    (num time, Machine.Backoff_start { tid = num tid })
  | time :: "backoff-end" :: [ tid ] ->
    (num time, Machine.Backoff_end { tid = num tid })
  | time :: "req-dispatch" :: [ tid; req; ab ] ->
    (num time, Machine.Req_dispatch { tid = num tid; req = num req; ab = num ab })
  | time :: "req-done" :: [ tid; req; ab ] ->
    (num time, Machine.Req_done { tid = num tid; req = num req; ab = num ab })
  | time :: "stm-begin" :: [ tid; ab; attempt ] ->
    ( num time,
      Machine.Stm_begin { tid = num tid; ab = num ab; attempt = num attempt } )
  | time :: "stm-commit" :: [ tid; ab; cycles; vcycles; rset; wset ] ->
    ( num time,
      Machine.Stm_commit
        {
          tid = num tid;
          ab = num ab;
          cycles = num cycles;
          vcycles = num vcycles;
          rset = num rset;
          wset = num wset;
        } )
  | time :: "stm-abort" :: [ tid; ab; k; cycles; vcycles; rset; wset ] ->
    ( num time,
      Machine.Stm_abort
        {
          tid = num tid;
          ab = num ab;
          kind = stm_kind k;
          cycles = num cycles;
          vcycles = num vcycles;
          rset = num rset;
          wset = num wset;
        } )
  | _ -> codec_fail "line %d: unparseable event %S" lineno line

let read_events ~file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      let next () =
        incr lineno;
        match input_line ic with
        | l -> l
        | exception End_of_file -> codec_fail "line %d: unexpected end of file" !lineno
      in
      (match String.split_on_char ' ' (next ()) with
      | [ magic; v ] when magic = codec_magic ->
        if int_of_string_opt v <> Some codec_version then
          codec_fail "unsupported %s version %s (expected %d)" codec_magic v
            codec_version
      | _ -> codec_fail "not an %s capture" codec_magic);
      let threads =
        match String.split_on_char ' ' (next ()) with
        | [ "threads"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> n
          | _ -> codec_fail "bad threads header")
        | _ -> codec_fail "missing threads header"
      in
      let dropped =
        match String.split_on_char ' ' (next ()) with
        | [ "dropped"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> n
          | _ -> codec_fail "bad dropped header")
        | _ -> codec_fail "missing dropped header"
      in
      let meta = ref [] in
      let rec header () =
        let line = next () in
        match String.split_on_char ' ' line with
        | "meta" :: k :: rest ->
          meta := (k, String.concat " " rest) :: !meta;
          header ()
        | [ "events"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> n
          | _ -> codec_fail "bad events header")
        | _ -> codec_fail "line %d: expected meta or events header" !lineno
      in
      let count = header () in
      let t = create ~threads () in
      for _ = 1 to count do
        let time, ev = parse_event (next ()) !lineno in
        handler t ~time ev
      done;
      t.n_dropped <- dropped;
      (t, List.rev !meta))
