type ab_stat = {
  mutable ab_commits : int;
  mutable ab_aborts : int;
  mutable ab_locks : int;
  mutable ab_irrevocable : int;
}

type pol_stat = {
  mutable p_commits : int;
  mutable p_aborts : int;
  mutable p_capacity : int;
  mutable p_irrevocable : int;
}

type t = {
  threads : int;
  mutable commits : int;
  mutable aborts : int;
  mutable conflict_aborts : int;
  mutable lock_sub_aborts : int;
  mutable explicit_aborts : int;
  mutable capacity_aborts : int;
  mutable stm_conflict_aborts : int;
      (* hardware aborts inflicted by a software-tier commit *)
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable stm_validation_aborts : int;
  mutable stm_hw_owned_aborts : int;
  mutable stm_locksub_aborts : int;
  mutable stm_validation_cycles : int;
  mutable irrevocable_entries : int;
  mutable useful_cycles : int;
  mutable wasted_cycles : int;
  mutable tx_mode_cycles : int;
  mutable lock_wait_cycles : int;
  mutable backoff_cycles : int;
  mutable total_cycles : int;
  mutable thread_cycles : int;
  mutable lock_acquires : int;
  mutable lock_timeouts : int;
  mutable alps_executed : int;
  mutable alps_lock_attempts : int;
  mutable accuracy_hits : int;
  mutable accuracy_total : int;
  mutable precise : int;
  mutable coarse : int;
  mutable promoted : int;
  mutable training : int;
  mutable insts : int;
  mutable tx_insts : int;
  mutable committed_tx_insts : int;
  conf_addr_freq : (int, int) Hashtbl.t;
  conf_pc_freq : (int, int) Hashtbl.t;
  per_ab : (int, ab_stat) Hashtbl.t;
  per_policy : (string, pol_stat) Hashtbl.t;
}

let create ~threads =
  {
    threads;
    commits = 0;
    aborts = 0;
    conflict_aborts = 0;
    lock_sub_aborts = 0;
    explicit_aborts = 0;
    capacity_aborts = 0;
    stm_conflict_aborts = 0;
    stm_commits = 0;
    stm_aborts = 0;
    stm_validation_aborts = 0;
    stm_hw_owned_aborts = 0;
    stm_locksub_aborts = 0;
    stm_validation_cycles = 0;
    irrevocable_entries = 0;
    useful_cycles = 0;
    wasted_cycles = 0;
    tx_mode_cycles = 0;
    lock_wait_cycles = 0;
    backoff_cycles = 0;
    total_cycles = 0;
    thread_cycles = 0;
    lock_acquires = 0;
    lock_timeouts = 0;
    alps_executed = 0;
    alps_lock_attempts = 0;
    accuracy_hits = 0;
    accuracy_total = 0;
    precise = 0;
    coarse = 0;
    promoted = 0;
    training = 0;
    insts = 0;
    tx_insts = 0;
    committed_tx_insts = 0;
    conf_addr_freq = Hashtbl.create 64;
    conf_pc_freq = Hashtbl.create 64;
    per_ab = Hashtbl.create 8;
    per_policy = Hashtbl.create 4;
  }

(* The scalar counters, in result-store order: [merge] and the store
   codec iterate this one list, so a new counter is declared here and in
   [create] only. *)
let counters =
  [
    ("commits", (fun t -> t.commits), fun t v -> t.commits <- v);
    ("aborts", (fun t -> t.aborts), fun t v -> t.aborts <- v);
    ("conflict_aborts", (fun t -> t.conflict_aborts), fun t v -> t.conflict_aborts <- v);
    ("lock_sub_aborts", (fun t -> t.lock_sub_aborts), fun t v -> t.lock_sub_aborts <- v);
    ("explicit_aborts", (fun t -> t.explicit_aborts), fun t v -> t.explicit_aborts <- v);
    ("capacity_aborts", (fun t -> t.capacity_aborts), fun t v -> t.capacity_aborts <- v);
    ("stm_conflict_aborts", (fun t -> t.stm_conflict_aborts), fun t v -> t.stm_conflict_aborts <- v);
    ("stm_commits", (fun t -> t.stm_commits), fun t v -> t.stm_commits <- v);
    ("stm_aborts", (fun t -> t.stm_aborts), fun t v -> t.stm_aborts <- v);
    ("stm_validation_aborts", (fun t -> t.stm_validation_aborts), fun t v -> t.stm_validation_aborts <- v);
    ("stm_hw_owned_aborts", (fun t -> t.stm_hw_owned_aborts), fun t v -> t.stm_hw_owned_aborts <- v);
    ("stm_locksub_aborts", (fun t -> t.stm_locksub_aborts), fun t v -> t.stm_locksub_aborts <- v);
    ("stm_validation_cycles", (fun t -> t.stm_validation_cycles), fun t v -> t.stm_validation_cycles <- v);
    ("irrevocable_entries", (fun t -> t.irrevocable_entries), fun t v -> t.irrevocable_entries <- v);
    ("useful_cycles", (fun t -> t.useful_cycles), fun t v -> t.useful_cycles <- v);
    ("wasted_cycles", (fun t -> t.wasted_cycles), fun t v -> t.wasted_cycles <- v);
    ("tx_mode_cycles", (fun t -> t.tx_mode_cycles), fun t v -> t.tx_mode_cycles <- v);
    ("lock_wait_cycles", (fun t -> t.lock_wait_cycles), fun t v -> t.lock_wait_cycles <- v);
    ("backoff_cycles", (fun t -> t.backoff_cycles), fun t v -> t.backoff_cycles <- v);
    ("total_cycles", (fun t -> t.total_cycles), fun t v -> t.total_cycles <- v);
    ("thread_cycles", (fun t -> t.thread_cycles), fun t v -> t.thread_cycles <- v);
    ("lock_acquires", (fun t -> t.lock_acquires), fun t v -> t.lock_acquires <- v);
    ("lock_timeouts", (fun t -> t.lock_timeouts), fun t v -> t.lock_timeouts <- v);
    ("alps_executed", (fun t -> t.alps_executed), fun t v -> t.alps_executed <- v);
    ("alps_lock_attempts", (fun t -> t.alps_lock_attempts), fun t v -> t.alps_lock_attempts <- v);
    ("accuracy_hits", (fun t -> t.accuracy_hits), fun t v -> t.accuracy_hits <- v);
    ("accuracy_total", (fun t -> t.accuracy_total), fun t v -> t.accuracy_total <- v);
    ("precise", (fun t -> t.precise), fun t v -> t.precise <- v);
    ("coarse", (fun t -> t.coarse), fun t v -> t.coarse <- v);
    ("promoted", (fun t -> t.promoted), fun t v -> t.promoted <- v);
    ("training", (fun t -> t.training), fun t v -> t.training <- v);
    ("insts", (fun t -> t.insts), fun t v -> t.insts <- v);
    ("tx_insts", (fun t -> t.tx_insts), fun t v -> t.tx_insts <- v);
    ("committed_tx_insts", (fun t -> t.committed_tx_insts), fun t v -> t.committed_tx_insts <- v);
  ]

let aborts_per_commit t = Stx_util.Stat.ratio t.aborts t.commits
let wasted_over_useful t = Stx_util.Stat.ratio t.wasted_cycles t.useful_cycles
let pct_irrevocable t = Stx_util.Stat.percent t.irrevocable_entries t.commits
(* tx_mode_cycles aggregates across threads, so the denominator must too:
   thread_cycles (the sum of final thread-local clocks, accumulated at run
   end and summed by [merge]). Recomputing it as total_cycles * threads
   skews merged values — merge maxes both factors, so two sequential
   same-thread runs would divide a summed numerator by an un-summed
   denominator and report > 100%. The fallback covers hand-built records
   that never ran (fixtures, old store entries). *)
let pct_tx_time t =
  let denom =
    if t.thread_cycles > 0 then t.thread_cycles else t.total_cycles * t.threads
  in
  Stx_util.Stat.percent t.tx_mode_cycles denom
let accuracy t = Stx_util.Stat.percent t.accuracy_hits t.accuracy_total

let locality ?(top = 1) freq =
  let total = Hashtbl.fold (fun _ c acc -> acc + c) freq 0 in
  if total = 0 then 0.
  else begin
    let counts = Hashtbl.fold (fun _ c acc -> c :: acc) freq [] in
    let sorted = List.sort (fun a b -> compare b a) counts in
    let rec take k = function
      | c :: rest when k > 0 -> c + take (k - 1) rest
      | _ -> 0
    in
    float_of_int (take top sorted) /. float_of_int total
  end

let ab t id =
  match Hashtbl.find_opt t.per_ab id with
  | Some a -> a
  | None ->
    let a = { ab_commits = 0; ab_aborts = 0; ab_locks = 0; ab_irrevocable = 0 } in
    Hashtbl.add t.per_ab id a;
    a

let policy_tally t label =
  match Hashtbl.find_opt t.per_policy label with
  | Some p -> p
  | None ->
    let p = { p_commits = 0; p_aborts = 0; p_capacity = 0; p_irrevocable = 0 } in
    Hashtbl.add t.per_policy label p;
    p

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_into tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let merge a b =
  let m = create ~threads:(max a.threads b.threads) in
  (* total_cycles is a makespan, not a counter: concurrent shards overlap.
     thread_cycles is a counter: every thread's clock keeps ticking in its
     own run, so the %TM denominator sums. *)
  List.iter
    (fun (name, get, set) ->
      set m
        (if name = "total_cycles" then max (get a) (get b) else get a + get b))
    counters;
  let union dst src = Hashtbl.iter (fun k v -> add_into dst k v) src in
  union m.conf_addr_freq a.conf_addr_freq;
  union m.conf_addr_freq b.conf_addr_freq;
  union m.conf_pc_freq a.conf_pc_freq;
  union m.conf_pc_freq b.conf_pc_freq;
  let add_abs src =
    Hashtbl.iter
      (fun id (x : ab_stat) ->
        let d = ab m id in
        d.ab_commits <- d.ab_commits + x.ab_commits;
        d.ab_aborts <- d.ab_aborts + x.ab_aborts;
        d.ab_locks <- d.ab_locks + x.ab_locks;
        d.ab_irrevocable <- d.ab_irrevocable + x.ab_irrevocable)
      src
  in
  add_abs a.per_ab;
  add_abs b.per_ab;
  let add_pols src =
    Hashtbl.iter
      (fun label (x : pol_stat) ->
        let d = policy_tally m label in
        d.p_commits <- d.p_commits + x.p_commits;
        d.p_aborts <- d.p_aborts + x.p_aborts;
        d.p_capacity <- d.p_capacity + x.p_capacity;
        d.p_irrevocable <- d.p_irrevocable + x.p_irrevocable)
      src
  in
  add_pols a.per_policy;
  add_pols b.per_policy;
  m

let note_conflict t ~conf_line ~conf_pc =
  bump t.conf_addr_freq conf_line;
  match conf_pc with Some pc -> bump t.conf_pc_freq pc | None -> ()
