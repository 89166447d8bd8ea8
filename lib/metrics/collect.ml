open Stx_sim

(* Metric names. One source of truth: the collector writes them, the
   profile/bench readers and the reconciliation checker read them. *)

let m_latency = "stx_tx_latency_cycles"
let m_retries = "stx_tx_retries"
let m_rset = "stx_rset_lines"
let m_wset = "stx_wset_lines"
let m_lock_wait = "stx_lock_wait_cycles"
let m_backoff = "stx_backoff_cycles"
let m_irrevocable = "stx_irrevocable_cycles"
let m_phase = "stx_phase_cycles"
let m_commits = "stx_commits"
let m_aborts = "stx_aborts"
let m_irrevocable_entries = "stx_irrevocable_entries"
let m_lock_attempts = "stx_lock_attempts"
let m_lock_acquires = "stx_lock_acquires"
let m_lock_timeouts = "stx_lock_timeouts"
let m_alps_executed = "stx_alps_executed"
let m_alps_fired = "stx_alps_fired"
let m_stm_commits = "stx_stm_commits"
let m_stm_aborts = "stx_stm_aborts"
let m_stm_vcycles = "stx_stm_validation_cycles"

let outcome_commit = [ ("outcome", "commit") ]
let outcome_abort = [ ("outcome", "abort") ]

type phase = Prefix | Lock_wait | Suffix | Irrevocable | Stm | Backoff | Wasted

let phases = [ Prefix; Lock_wait; Suffix; Irrevocable; Stm; Backoff; Wasted ]

let phase_label = function
  | Prefix -> "prefix"
  | Lock_wait -> "lock_wait"
  | Suffix -> "suffix"
  | Irrevocable -> "irrevocable"
  | Stm -> "stm"
  | Backoff -> "backoff"
  | Wasted -> "wasted"

let phase_labels ~ab p =
  [ ("ab", string_of_int ab); ("phase", phase_label p) ]

(* [create] resolves every fixed series to a registry handle once, and
   the phase counters of each atomic block when the block first appears,
   so the handler builds no label list or key per event. A handle writes
   nothing until its first event: the registry holds exactly the series
   a string-keyed write per event would have created. *)

type t = { reg : Registry.t; handler : time:int -> Machine.event -> unit }

let create ?(policy = Stx_policy.default) () =
  let reg = Registry.create () in
  let lc = Lifecycle.create () in
  (* every series carries the collector's policy label *)
  let pol = [ ("policy", Stx_policy.label policy) ] in
  let counter name labels = Registry.counter reg name (labels @ pol) in
  let hist name labels = Registry.hist reg name (labels @ pol) in
  let inc c = Registry.add c 1 and record = Registry.record in
  let attempt outcome =
    let lat = hist m_latency outcome
    and rs = hist m_rset outcome
    and ws = hist m_wset outcome in
    fun ~cycles ~rset ~wset ->
      record lat cycles;
      record rs rset;
      record ws wset
  in
  let committed = attempt outcome_commit and aborted = attempt outcome_abort in
  let commits = counter m_commits [] and stm_commits = counter m_stm_commits [] in
  let stm_vcycles = counter m_stm_vcycles [] in
  let kind label = [ ("kind", label) ] in
  let abort_counter =
    let c k = counter m_aborts (kind (Lifecycle.abort_label k)) in
    let conflict = c Machine.Conflict and lock_sub = c Machine.Lock_subscription
    and capacity = c Machine.Capacity and explicit = c Machine.Explicit
    and stm_conflict = c Machine.Stm_conflict in
    function
    | Machine.Conflict -> conflict
    | Machine.Lock_subscription -> lock_sub
    | Machine.Capacity -> capacity
    | Machine.Explicit -> explicit
    | Machine.Stm_conflict -> stm_conflict
  in
  (* a software abort counts under stx_aborts and stx_stm_aborts *)
  let stm_abort_counters =
    let c k =
      let l = kind (Lifecycle.stm_abort_label k) in
      (counter m_aborts l, counter m_stm_aborts l)
    in
    let validation = c Machine.Stm_validation and hw_owned = c Machine.Stm_hw_owned
    and locksub = c Machine.Stm_locksub and explicit = c Machine.Stm_explicit in
    function
    | Machine.Stm_validation -> validation
    | Machine.Stm_hw_owned -> hw_owned
    | Machine.Stm_locksub -> locksub
    | Machine.Stm_explicit -> explicit
  in
  let retries = hist m_retries [] and irrevocable_cycles = hist m_irrevocable [] in
  let backoff = hist m_backoff [] in
  let wait outcome = hist m_lock_wait [ ("outcome", outcome) ] in
  let wait_acquired = wait "acquired" and wait_timeout = wait "timeout" in
  let wait_aborted = wait "aborted" in
  let irrevocable_entries = counter m_irrevocable_entries [] in
  let lock_attempts = counter m_lock_attempts [] in
  let lock_acquires = counter m_lock_acquires [] in
  let lock_timeouts = counter m_lock_timeouts [] in
  let alps_executed = counter m_alps_executed [] in
  let alps_fired = counter m_alps_fired [] in
  let phase_counters ab =
    let c p = counter m_phase (phase_labels ~ab p) in
    let prefix = c Prefix and lock_wait = c Lock_wait and suffix = c Suffix
    and irrevocable = c Irrevocable and stm = c Stm and backoff = c Backoff
    and wasted = c Wasted in
    function
    | Prefix -> prefix
    | Lock_wait -> lock_wait
    | Suffix -> suffix
    | Irrevocable -> irrevocable
    | Stm -> stm
    | Backoff -> backoff
    | Wasted -> wasted
  in
  let by_ab = ref [||] in
  let add_phase ~ab p c =
    if c > 0 then begin
      let n = Array.length !by_ab in
      if ab >= n then
        by_ab :=
          Array.init (max (ab + 1) (2 * n)) (fun i ->
              if i < n then !by_ab.(i) else phase_counters i);
      (* a negative id only comes from a degraded stream: not cached *)
      let counters = if ab < 0 then phase_counters ab else !by_ab.(ab) in
      Registry.add (counters p) c
    end
  in
  (* episodes are tracked inside attempts only; an abort lands mid-spin
     when the victim was doomed while queued, and the episode's tail
     (plus abort costs charged before emission) is already inside the
     wasted cycles *)
  let close_wait (th : Lifecycle.thread) ~time h =
    if th.ab >= 0 && th.wait_lock >= 0 then record h (time - th.wait_since)
  in
  let handler ~time ev =
    (* attempt and wait-episode spans close from the state before [ev] *)
    let th = Lifecycle.thread lc (Lifecycle.event_tid ev) in
    let in_attempt = th.Lifecycle.ab >= 0 in
    (match (ev : Machine.event) with
    | Machine.Tx_begin _ | Machine.Stm_begin _ | Machine.Lock_waiting _
    | Machine.Lock_released _ | Machine.Backoff_start _ ->
      ()
    | Machine.Lock_acquired _ ->
      inc lock_acquires;
      close_wait th ~time wait_acquired
    | Machine.Lock_timeout _ ->
      inc lock_timeouts;
      close_wait th ~time wait_timeout
    | Machine.Lock_attempt _ -> inc lock_attempts
    | Machine.Tx_commit { ab; cycles; irrevocable; rset; wset; _ } ->
      inc commits;
      committed ~cycles ~rset ~wset;
      if not in_attempt then begin
        (* commit without a begin: degraded stream; count everything as
           prefix so the cycle identities still hold *)
        record retries 0;
        add_phase ~ab (if irrevocable then Irrevocable else Prefix) cycles
      end
      else begin
        record retries th.Lifecycle.attempt;
        if irrevocable then begin
          record irrevocable_cycles cycles;
          add_phase ~ab Irrevocable cycles
        end
        else begin
          let acq = th.Lifecycle.first_acquire in
          let suffix = if acq >= 0 then time - acq else 0 in
          add_phase ~ab Prefix (cycles - th.Lifecycle.waited - suffix);
          add_phase ~ab Lock_wait th.Lifecycle.waited;
          add_phase ~ab Suffix suffix
        end
      end
    | Machine.Tx_abort { ab; kind; cycles; rset; wset; _ } ->
      inc (abort_counter kind);
      aborted ~cycles ~rset ~wset;
      add_phase ~ab Wasted cycles;
      close_wait th ~time wait_aborted
    | Machine.Tx_irrevocable _ -> inc irrevocable_entries
    | Machine.Alp_executed { fired; _ } ->
      inc alps_executed;
      if fired then inc alps_fired
    | Machine.Backoff_end _ ->
      let t0 = th.Lifecycle.backoff_since in
      if t0 >= 0 then begin
        record backoff (time - t0);
        add_phase ~ab:th.Lifecycle.last_ab Backoff (time - t0)
      end
    | Machine.Req_dispatch _ | Machine.Req_done _ ->
      (* request lifecycle is the serving harness's plane (Stx_serve); the
         transaction-level registry ignores it so serve and closed-loop
         runs of one workload stay directly comparable *)
      ()
    | Machine.Stm_commit { ab; cycles; vcycles; rset; wset; _ } ->
      inc commits;
      inc stm_commits;
      if vcycles > 0 then Registry.add stm_vcycles vcycles;
      committed ~cycles ~rset ~wset;
      record retries (if in_attempt then th.Lifecycle.attempt else 0);
      (* the whole software attempt is one phase: its validation traffic
         is reported through m_stm_vcycles, not a phase split *)
      add_phase ~ab Stm cycles
    | Machine.Stm_abort { ab; kind; cycles; vcycles; rset; wset; _ } ->
      let all, stm = stm_abort_counters kind in
      inc all;
      inc stm;
      if vcycles > 0 then Registry.add stm_vcycles vcycles;
      aborted ~cycles ~rset ~wset;
      add_phase ~ab Wasted cycles);
    ignore (Lifecycle.step lc th ~time ev)
  in
  { reg; handler }

let registry t = t.reg
let handler t = t.handler

let of_trace ?policy tr =
  let t = create ?policy () in
  Stx_trace.Trace.iter tr (fun ~time ev -> handler t ~time ev);
  t.reg

(* --- phase readout ---------------------------------------------------- *)

(* Readers match by label subset: a series written with the policy label
   (or any future dimension) still satisfies a query that does not name
   it, so profile/bench/check work unchanged across policy bundles — and
   sum across bundles when a merged registry holds several. *)

let label_subset sub super =
  List.for_all (fun (k, v) -> List.assoc_opt k super = Some v) sub

let counter_sum reg name labels =
  Registry.fold
    (fun n ls v acc ->
      match v with
      | Registry.Counter c when n = name && label_subset labels ls -> acc + c
      | _ -> acc)
    reg 0

let phase_cycles reg ~ab p = counter_sum reg m_phase (phase_labels ~ab p)

let abs_profiled reg =
  Registry.fold
    (fun name labels _ acc ->
      if name = m_phase then
        match List.assoc_opt "ab" labels with
        | Some s -> ( match int_of_string_opt s with Some ab -> ab :: acc | None -> acc)
        | None -> acc
      else acc)
    reg []
  |> List.sort_uniq compare

let phase_total reg p =
  List.fold_left (fun acc ab -> acc + phase_cycles reg ~ab p) 0 (abs_profiled reg)

let histogram_opt reg name labels =
  Registry.fold
    (fun n ls v acc ->
      match v with
      | Registry.Histogram h when n = name && label_subset labels ls ->
        Some (Hist.merge (Option.value acc ~default:(Hist.create ())) h)
      | _ -> acc)
    reg None

let histogram reg name labels =
  match histogram_opt reg name labels with
  | Some h -> h
  | None ->
    failwith
      (Printf.sprintf "Collect.histogram: no series %s{%s}" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)))

(* --- reconciliation against the inline counters ----------------------- *)

let hist_stats reg name labels =
  Registry.fold
    (fun n ls v ((count, sum) as acc) ->
      match v with
      | Registry.Histogram h when n = name && label_subset labels ls ->
        (count + Hist.count h, sum + Hist.sum h)
      | _ -> acc)
    reg (0, 0)

let check reg (stats : Stats.t) =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let eq what got want =
    if got <> want then note "%s: registry %d vs stats %d" what got want
  in
  let counter name labels = counter_sum reg name labels in
  eq "commits" (counter m_commits []) stats.Stats.commits;
  eq "conflict aborts" (counter m_aborts [ ("kind", "conflict") ])
    stats.Stats.conflict_aborts;
  eq "lock-subscription aborts"
    (counter m_aborts [ ("kind", "lock_subscription") ])
    stats.Stats.lock_sub_aborts;
  eq "capacity aborts" (counter m_aborts [ ("kind", "capacity") ])
    stats.Stats.capacity_aborts;
  eq "explicit aborts" (counter m_aborts [ ("kind", "explicit") ])
    stats.Stats.explicit_aborts;
  eq "stm-conflict aborts" (counter m_aborts [ ("kind", "stm_conflict") ])
    stats.Stats.stm_conflict_aborts;
  eq "stm commits" (counter m_stm_commits []) stats.Stats.stm_commits;
  eq "stm aborts" (counter m_stm_aborts []) stats.Stats.stm_aborts;
  eq "stm validation aborts"
    (counter m_stm_aborts [ ("kind", "stm_validation") ])
    stats.Stats.stm_validation_aborts;
  eq "stm hw-owned aborts"
    (counter m_stm_aborts [ ("kind", "stm_hw_owned") ])
    stats.Stats.stm_hw_owned_aborts;
  eq "stm lock-subscription aborts"
    (counter m_stm_aborts [ ("kind", "stm_lock_subscription") ])
    stats.Stats.stm_locksub_aborts;
  eq "stm validation cycles" (counter m_stm_vcycles [])
    stats.Stats.stm_validation_cycles;
  eq "irrevocable entries" (counter m_irrevocable_entries [])
    stats.Stats.irrevocable_entries;
  eq "lock attempts" (counter m_lock_attempts []) stats.Stats.alps_lock_attempts;
  eq "lock acquires" (counter m_lock_acquires []) stats.Stats.lock_acquires;
  eq "lock timeouts" (counter m_lock_timeouts []) stats.Stats.lock_timeouts;
  eq "alps executed" (counter m_alps_executed []) stats.Stats.alps_executed;
  let cc, cs = hist_stats reg m_latency outcome_commit in
  eq "commit-latency count" cc stats.Stats.commits;
  eq "commit-latency sum = useful_cycles" cs stats.Stats.useful_cycles;
  let ac, asum = hist_stats reg m_latency outcome_abort in
  eq "abort-latency count" ac stats.Stats.aborts;
  eq "abort-latency sum = wasted_cycles" asum stats.Stats.wasted_cycles;
  let rc, _ = hist_stats reg m_retries [] in
  eq "retries observations" rc stats.Stats.commits;
  let rsc, _ = hist_stats reg m_rset outcome_commit in
  let wsc, _ = hist_stats reg m_wset outcome_commit in
  eq "committed read-set observations" rsc stats.Stats.commits;
  eq "committed write-set observations" wsc stats.Stats.commits;
  let rsa, _ = hist_stats reg m_rset outcome_abort in
  let wsa, _ = hist_stats reg m_wset outcome_abort in
  eq "aborted read-set observations" rsa stats.Stats.aborts;
  eq "aborted write-set observations" wsa stats.Stats.aborts;
  let _, bsum = hist_stats reg m_backoff [] in
  eq "backoff sum = backoff_cycles" bsum stats.Stats.backoff_cycles;
  let ic, _ = hist_stats reg m_irrevocable [] in
  let irrevocable_commits =
    Hashtbl.fold
      (fun _ ab acc -> acc + ab.Stats.ab_irrevocable)
      stats.Stats.per_ab 0
  in
  eq "irrevocable-duration count" ic irrevocable_commits;
  eq "phase useful identity"
    (phase_total reg Prefix + phase_total reg Lock_wait + phase_total reg Suffix
   + phase_total reg Irrevocable + phase_total reg Stm)
    stats.Stats.useful_cycles;
  eq "phase wasted identity" (phase_total reg Wasted) stats.Stats.wasted_cycles;
  eq "phase backoff identity" (phase_total reg Backoff) stats.Stats.backoff_cycles;
  let _, wa = hist_stats reg m_lock_wait [ ("outcome", "acquired") ] in
  let _, wt = hist_stats reg m_lock_wait [ ("outcome", "timeout") ] in
  (* abort-terminated episodes fold their spin tail into the abort path,
     and irrevocable entry spins on the global lock with no per-episode
     events, so the tracked episodes can only undercount *)
  if wa + wt > stats.Stats.lock_wait_cycles then
    note "tracked lock-wait episodes (%d) exceed stats.lock_wait_cycles (%d)"
      (wa + wt) stats.Stats.lock_wait_cycles;
  match !errs with [] -> Ok () | errs -> Error (List.rev errs)
