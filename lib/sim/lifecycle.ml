type thread = {
  tid : int;
  mutable ab : int;
  mutable stm : bool;
  mutable attempt : int;
  mutable probe : bool;
  mutable start : int;
  mutable lock : int;
  mutable lock_line : int;
  mutable lock_since : int;
  mutable acquires : int;
  mutable first_acquire : int;
  mutable wait_lock : int;
  mutable wait_since : int;
  mutable waited : int;
  mutable backoff_since : int;
  mutable req : int;
  mutable req_since : int;
  mutable last_time : int;
  mutable last_ab : int;
}

type t = {
  bound : int;  (* tids in [0, bound) are covered *)
  mutable threads : thread array;
  violation : string -> unit;
}

let fresh tid =
  {
    tid; ab = -1; stm = false; attempt = 0; probe = false; start = 0; lock = -1;
    lock_line = 0; lock_since = 0; acquires = 0; first_acquire = -1;
    wait_lock = -1; wait_since = 0; waited = 0; backoff_since = -1; req = -1;
    req_since = 0; last_time = 0; last_ab = 0;
  }

(* handed out for uncovered tids; [step] never touches it *)
let nobody = fresh (-1)

let create ?threads ?(violation = ignore) () =
  match threads with
  | Some n -> { bound = n; threads = Array.init n fresh; violation }
  | None -> { bound = max_int; threads = Array.init 16 fresh; violation }

let event_tid = function
  | Machine.Tx_begin { tid; _ }
  | Machine.Tx_commit { tid; _ }
  | Machine.Tx_abort { tid; _ }
  | Machine.Tx_irrevocable { tid; _ }
  | Machine.Alp_executed { tid; _ }
  | Machine.Lock_attempt { tid; _ }
  | Machine.Lock_acquired { tid; _ }
  | Machine.Lock_released { tid; _ }
  | Machine.Lock_waiting { tid; _ }
  | Machine.Lock_timeout { tid; _ }
  | Machine.Backoff_start { tid }
  | Machine.Backoff_end { tid }
  | Machine.Req_dispatch { tid; _ }
  | Machine.Req_done { tid; _ }
  | Machine.Stm_begin { tid; _ }
  | Machine.Stm_commit { tid; _ }
  | Machine.Stm_abort { tid; _ } -> tid

let thread t tid =
  if tid < 0 || tid >= t.bound then nobody
  else begin
    let n = Array.length t.threads in
    if tid >= n then
      t.threads <-
        Array.init (max (tid + 1) (2 * n)) (fun i ->
            if i < n then t.threads.(i) else fresh i);
    t.threads.(tid)
  end

let bad t th fmt =
  Printf.ksprintf (fun s -> t.violation (Printf.sprintf "thread %d: %s" th.tid s)) fmt

let open_attempt th ~time ~ab ~stm ~attempt ~probe =
  th.ab <- ab;
  th.stm <- stm;
  th.attempt <- attempt;
  th.probe <- probe;
  th.start <- time;
  th.lock <- -1;
  th.acquires <- 0;
  th.first_acquire <- -1;
  th.waited <- 0;
  th.last_ab <- ab

(* [what] names the closing event as the messages do: "commit",
   "software abort", ... *)
let close_attempt t th ~time ~ab ~stm ~what =
  if th.ab < 0 then bad t th "%s at %d with no open attempt" what time
  else begin
    if ab <> th.ab then
      bad t th "%s names ab%d but the open attempt is ab%d" what ab th.ab;
    if stm && not th.stm then bad t th "%s at %d closes a hardware attempt" what time;
    if th.stm && not stm then
      bad t th "hardware %s at %d closes a software attempt" what time;
    if (not stm) && th.lock >= 0 then
      bad t th "advisory lock still held at %s (time %d)" what time
  end;
  th.ab <- -1;
  th.wait_lock <- -1

let end_wait th ~time =
  if th.wait_lock >= 0 then begin
    th.waited <- th.waited + (time - th.wait_since);
    th.wait_lock <- -1
  end

let step t th ~time (ev : Machine.event) =
  if th == nobody then begin
    t.violation
      (Printf.sprintf "event names thread %d but the trace covers %d threads"
         (event_tid ev) t.bound);
    false
  end
  else begin
    if time < th.last_time then
      bad t th "clock went backwards (%d after %d)" time th.last_time;
    th.last_time <- time;
    (match ev with
    | Machine.Tx_begin { ab; attempt; probe; _ } ->
      if th.ab >= 0 then bad t th "begin at %d while an attempt is open" time;
      open_attempt th ~time ~ab ~stm:false ~attempt ~probe
    | Machine.Stm_begin { ab; attempt; _ } ->
      if th.ab >= 0 then bad t th "software begin at %d while an attempt is open" time;
      open_attempt th ~time ~ab ~stm:true ~attempt ~probe:false
    | Machine.Tx_commit { ab; _ } -> close_attempt t th ~time ~ab ~stm:false ~what:"commit"
    | Machine.Tx_abort { ab; _ } ->
      close_attempt t th ~time ~ab ~stm:false ~what:"abort";
      th.last_ab <- ab
    | Machine.Stm_commit { ab; _ } ->
      close_attempt t th ~time ~ab ~stm:true ~what:"software commit"
    | Machine.Stm_abort { ab; _ } ->
      close_attempt t th ~time ~ab ~stm:true ~what:"software abort";
      th.last_ab <- ab
    | Machine.Tx_irrevocable { ab; _ } ->
      if th.ab >= 0 then bad t th "irrevocable entry at %d inside an open attempt" time;
      th.last_ab <- ab
    | Machine.Alp_executed _ ->
      if th.ab < 0 then bad t th "ALP executed at %d outside a transaction" time
      else if th.stm then bad t th "ALP executed at %d inside a software attempt" time
    | Machine.Lock_attempt _ ->
      if th.ab < 0 then bad t th "lock attempt at %d outside a transaction" time
      else begin
        if th.stm then
          bad t th "advisory lock attempt at %d inside a software attempt" time;
        if th.lock >= 0 then
          bad t th "lock attempt at %d while already holding a lock" time
      end
    | Machine.Lock_acquired { lock; line; _ } ->
      if th.ab < 0 then bad t th "lock acquired at %d outside a transaction" time
      else begin
        if th.stm then
          bad t th "advisory lock acquired at %d inside a software attempt" time;
        if th.lock >= 0 then bad t th "second advisory lock acquired at %d" time;
        if th.acquires >= 1 then
          bad t th "more than one advisory lock acquisition in one attempt"
      end;
      end_wait th ~time;
      th.lock <- lock;
      th.lock_line <- line;
      th.lock_since <- time;
      th.acquires <- th.acquires + 1;
      if th.first_acquire < 0 then th.first_acquire <- time
    | Machine.Lock_released { lock; _ } ->
      if th.ab < 0 then bad t th "lock released at %d outside a transaction" time
      else if th.lock <> lock then
        bad t th "released lock %d it does not hold" lock;
      if th.lock = lock then th.lock <- -1
    | Machine.Lock_waiting { lock; _ } ->
      if th.ab < 0 then bad t th "lock wait at %d outside a transaction" time;
      th.wait_lock <- lock;
      th.wait_since <- time
    | Machine.Lock_timeout { lock; _ } ->
      if th.wait_lock <> lock then
        bad t th "timeout on lock %d it was not waiting for" lock;
      end_wait th ~time
    | Machine.Backoff_start _ ->
      if th.ab >= 0 then bad t th "backoff started at %d inside an open attempt" time;
      if th.backoff_since >= 0 then bad t th "nested backoff at %d" time;
      th.backoff_since <- time
    | Machine.Backoff_end _ ->
      if th.backoff_since < 0 then bad t th "backoff ended at %d without a start" time
      else th.backoff_since <- -1
    | Machine.Req_dispatch { req; _ } ->
      if th.req >= 0 then
        bad t th "request %d dispatched at %d while request %d is in flight" req time
          th.req;
      if th.ab >= 0 then
        bad t th "request %d dispatched at %d inside an open attempt" req time;
      th.req <- req;
      th.req_since <- time
    | Machine.Req_done { req; _ } ->
      if th.req < 0 then bad t th "request %d done at %d without a dispatch" req time
      else begin
        if th.req <> req then
          bad t th "request %d done at %d but request %d is in flight" req time th.req;
        th.req <- -1
      end);
    true
  end

let finish t =
  Array.iter
    (fun th ->
      if th.ab >= 0 then bad t th "attempt still open at end of trace";
      if th.backoff_since >= 0 then bad t th "backoff still open at end of trace";
      if th.req >= 0 then bad t th "request %d still in flight at end of trace" th.req)
    t.threads

let abort_label = function
  | Machine.Conflict -> "conflict"
  | Machine.Lock_subscription -> "lock_subscription"
  | Machine.Capacity -> "capacity"
  | Machine.Explicit -> "explicit"
  | Machine.Stm_conflict -> "stm_conflict"

let stm_abort_label = function
  | Machine.Stm_validation -> "stm_validation"
  | Machine.Stm_hw_owned -> "stm_hw_owned"
  | Machine.Stm_locksub -> "stm_lock_subscription"
  | Machine.Stm_explicit -> "stm_explicit"
