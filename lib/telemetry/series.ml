module Hist = Stx_metrics.Hist
module Json = Stx_util.Json

type window = {
  hw_commits : int;
  irrevocable_commits : int;
  stm_commits : int;
  conflict_aborts : int;
  locksub_aborts : int;
  capacity_aborts : int;
  explicit_aborts : int;
  stm_conflict_aborts : int;
  stm_aborts : int;
  lock_waits : int;
  lock_acquires : int;
  lock_timeouts : int;
  busy : int array;
  stm_cycles : int;
  lock_cycles : int;
  offered : int;
  completed : int;
  queue_peak : int;
  sojourn : Hist.t;
  conf_lines : (int * int) list;
  conf_pcs : (int * int) list;
}

type t = { width : int; threads : int; windows : window array }

let length t = Array.length t.windows
let commits w = w.hw_commits + w.irrevocable_commits + w.stm_commits

let aborts w =
  w.conflict_aborts + w.locksub_aborts + w.capacity_aborts + w.explicit_aborts
  + w.stm_conflict_aborts + w.stm_aborts

let busy_total w = Array.fold_left ( + ) 0 w.busy
let htm_cycles w = busy_total w - w.stm_cycles - w.lock_cycles

(* highest count wins; ties go to the lower id, so the choice is a
   function of the tally alone *)
let top tallies =
  List.fold_left
    (fun best (id, c) ->
      match best with
      | Some (_, bc) when bc >= c -> best
      | _ -> Some (id, c))
    None tallies

let top_line w = top w.conf_lines
let top_pc w = top w.conf_pcs

(* --- merge ------------------------------------------------------------ *)

let merge_tallies a b =
  let tbl = Hashtbl.create 16 in
  let add (id, c) =
    Hashtbl.replace tbl id (c + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun id c acc -> (id, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let merge_window a b =
  {
    hw_commits = a.hw_commits + b.hw_commits;
    irrevocable_commits = a.irrevocable_commits + b.irrevocable_commits;
    stm_commits = a.stm_commits + b.stm_commits;
    conflict_aborts = a.conflict_aborts + b.conflict_aborts;
    locksub_aborts = a.locksub_aborts + b.locksub_aborts;
    capacity_aborts = a.capacity_aborts + b.capacity_aborts;
    explicit_aborts = a.explicit_aborts + b.explicit_aborts;
    stm_conflict_aborts = a.stm_conflict_aborts + b.stm_conflict_aborts;
    stm_aborts = a.stm_aborts + b.stm_aborts;
    lock_waits = a.lock_waits + b.lock_waits;
    lock_acquires = a.lock_acquires + b.lock_acquires;
    lock_timeouts = a.lock_timeouts + b.lock_timeouts;
    busy = Array.init (Array.length a.busy) (fun i -> a.busy.(i) + b.busy.(i));
    stm_cycles = a.stm_cycles + b.stm_cycles;
    lock_cycles = a.lock_cycles + b.lock_cycles;
    offered = a.offered + b.offered;
    completed = a.completed + b.completed;
    queue_peak = max a.queue_peak b.queue_peak;
    sojourn = Hist.merge a.sojourn b.sojourn;
    conf_lines = merge_tallies a.conf_lines b.conf_lines;
    conf_pcs = merge_tallies a.conf_pcs b.conf_pcs;
  }

let merge a b =
  if a.width <> b.width then
    invalid_arg "Series.merge: window widths differ"
  else if a.threads <> b.threads then
    invalid_arg "Series.merge: thread counts differ";
  let n = max (Array.length a.windows) (Array.length b.windows) in
  let pick s i = if i < Array.length s.windows then Some s.windows.(i) else None in
  let windows =
    Array.init n (fun i ->
        match (pick a i, pick b i) with
        | Some wa, Some wb -> merge_window wa wb
        | Some w, None | None, Some w -> w
        | None, None -> assert false)
  in
  { width = a.width; threads = a.threads; windows }

(* --- equality --------------------------------------------------------- *)

let diff a b =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if a.width <> b.width then note "width: %d vs %d" a.width b.width;
  if a.threads <> b.threads then note "threads: %d vs %d" a.threads b.threads;
  if Array.length a.windows <> Array.length b.windows then
    note "windows: %d vs %d" (Array.length a.windows) (Array.length b.windows);
  let n = min (Array.length a.windows) (Array.length b.windows) in
  for i = 0 to n - 1 do
    let wa = a.windows.(i) and wb = b.windows.(i) in
    let eq what x y = if x <> y then note "window %d %s: %d vs %d" i what x y in
    eq "hw_commits" wa.hw_commits wb.hw_commits;
    eq "irrevocable_commits" wa.irrevocable_commits wb.irrevocable_commits;
    eq "stm_commits" wa.stm_commits wb.stm_commits;
    eq "conflict_aborts" wa.conflict_aborts wb.conflict_aborts;
    eq "locksub_aborts" wa.locksub_aborts wb.locksub_aborts;
    eq "capacity_aborts" wa.capacity_aborts wb.capacity_aborts;
    eq "explicit_aborts" wa.explicit_aborts wb.explicit_aborts;
    eq "stm_conflict_aborts" wa.stm_conflict_aborts wb.stm_conflict_aborts;
    eq "stm_aborts" wa.stm_aborts wb.stm_aborts;
    eq "lock_waits" wa.lock_waits wb.lock_waits;
    eq "lock_acquires" wa.lock_acquires wb.lock_acquires;
    eq "lock_timeouts" wa.lock_timeouts wb.lock_timeouts;
    eq "stm_cycles" wa.stm_cycles wb.stm_cycles;
    eq "lock_cycles" wa.lock_cycles wb.lock_cycles;
    eq "offered" wa.offered wb.offered;
    eq "completed" wa.completed wb.completed;
    eq "queue_peak" wa.queue_peak wb.queue_peak;
    if wa.busy <> wb.busy then note "window %d busy arrays differ" i;
    if not (Hist.equal wa.sojourn wb.sojourn) then
      note "window %d sojourn sketches differ" i;
    if wa.conf_lines <> wb.conf_lines then note "window %d line tallies differ" i;
    if wa.conf_pcs <> wb.conf_pcs then note "window %d pc tallies differ" i
  done;
  List.rev !errs

let equal a b = diff a b = []

(* --- CSV -------------------------------------------------------------- *)

let one_line s =
  String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s

let to_csv ?(meta = []) t =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter (fun (k, v) -> pf "# %s=%s\n" (one_line k) (one_line v)) meta;
  pf "# width=%d threads=%d windows=%d\n" t.width t.threads
    (Array.length t.windows);
  pf
    "window,start,commits,hw_commits,irrevocable_commits,stm_commits,aborts,conflict_aborts,locksub_aborts,capacity_aborts,explicit_aborts,stm_conflict_aborts,stm_aborts,lock_waits,lock_acquires,lock_timeouts,busy_cycles,stm_cycles,lock_cycles,offered,completed,queue_peak,sojourn_p50,sojourn_p99,top_line,top_pc";
  for c = 0 to t.threads - 1 do
    pf ",busy_c%d" c
  done;
  pf "\n";
  Array.iteri
    (fun i w ->
      let opt = function Some (id, _) -> string_of_int id | None -> "-" in
      pf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s"
        i (i * t.width) (commits w) w.hw_commits w.irrevocable_commits
        w.stm_commits (aborts w) w.conflict_aborts w.locksub_aborts
        w.capacity_aborts w.explicit_aborts w.stm_conflict_aborts w.stm_aborts
        w.lock_waits w.lock_acquires w.lock_timeouts (busy_total w)
        w.stm_cycles w.lock_cycles w.offered w.completed w.queue_peak
        (Hist.p50 w.sojourn) (Hist.p99 w.sojourn) (opt (top_line w))
        (opt (top_pc w));
      Array.iter (fun c -> pf ",%d" c) w.busy;
      pf "\n")
    t.windows;
  Buffer.contents b

(* --- JSONL ------------------------------------------------------------ *)

let schema = "stx-telemetry"
let version = 1

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("min", Json.Int (Hist.min_value h));
      ("max", Json.Int (Hist.max_value h));
      ( "buckets",
        Json.List
          (List.map
             (fun (k, c, m) -> Json.List [ Json.Int k; Json.Int c; Json.Int m ])
             (Hist.buckets_full h)) );
    ]

let tallies_json l =
  Json.List (List.map (fun (id, c) -> Json.List [ Json.Int id; Json.Int c ]) l)

let window_json i w =
  Json.Obj
    [
      ("window", Json.Int i);
      ("hw_commits", Json.Int w.hw_commits);
      ("irrevocable_commits", Json.Int w.irrevocable_commits);
      ("stm_commits", Json.Int w.stm_commits);
      ("conflict_aborts", Json.Int w.conflict_aborts);
      ("locksub_aborts", Json.Int w.locksub_aborts);
      ("capacity_aborts", Json.Int w.capacity_aborts);
      ("explicit_aborts", Json.Int w.explicit_aborts);
      ("stm_conflict_aborts", Json.Int w.stm_conflict_aborts);
      ("stm_aborts", Json.Int w.stm_aborts);
      ("lock_waits", Json.Int w.lock_waits);
      ("lock_acquires", Json.Int w.lock_acquires);
      ("lock_timeouts", Json.Int w.lock_timeouts);
      ("busy", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) w.busy)));
      ("stm_cycles", Json.Int w.stm_cycles);
      ("lock_cycles", Json.Int w.lock_cycles);
      ("offered", Json.Int w.offered);
      ("completed", Json.Int w.completed);
      ("queue_peak", Json.Int w.queue_peak);
      ("sojourn", hist_json w.sojourn);
      ("conf_lines", tallies_json w.conf_lines);
      ("conf_pcs", tallies_json w.conf_pcs);
    ]

let to_jsonl ?(meta = []) t =
  let b = Buffer.create 4096 in
  let header =
    Json.Obj
      ([
         ("schema", Json.Str schema);
         ("version", Json.Int version);
         ("width", Json.Int t.width);
         ("threads", Json.Int t.threads);
         ("windows", Json.Int (Array.length t.windows));
       ]
      @ List.map (fun (k, v) -> (k, Json.Str v)) meta)
  in
  Buffer.add_string b (Json.to_string header);
  Buffer.add_char b '\n';
  Array.iteri
    (fun i w ->
      Buffer.add_string b (Json.to_string (window_json i w));
      Buffer.add_char b '\n')
    t.windows;
  Buffer.contents b

let ( let* ) = Option.bind

let hist_of_json j =
  let* count = Option.bind (Json.member "count" j) Json.as_int in
  let* sum = Option.bind (Json.member "sum" j) Json.as_int in
  let* mn = Option.bind (Json.member "min" j) Json.as_int in
  let* mx = Option.bind (Json.member "max" j) Json.as_int in
  let* bl = Option.bind (Json.member "buckets" j) Json.as_list in
  let* triples =
    List.fold_left
      (fun acc bj ->
        let* acc = acc in
        match Json.as_list bj with
        | Some [ k; c; m ] ->
          let* k = Json.as_int k in
          let* c = Json.as_int c in
          let* m = Json.as_int m in
          Some ((k, c, m) :: acc)
        | _ -> None)
      (Some []) bl
  in
  Hist.restore ~count ~sum ~min_value:mn ~max_value:mx (List.rev triples)

let tallies_of_json j =
  let* l = Json.as_list j in
  List.fold_left
    (fun acc p ->
      let* acc = acc in
      match Json.as_list p with
      | Some [ id; c ] ->
        let* id = Json.as_int id in
        let* c = Json.as_int c in
        Some ((id, c) :: acc)
      | _ -> None)
    (Some []) l
  |> Option.map List.rev

let window_of_json j =
  let geti k = Option.bind (Json.member k j) Json.as_int in
  let* hw_commits = geti "hw_commits" in
  let* irrevocable_commits = geti "irrevocable_commits" in
  let* stm_commits = geti "stm_commits" in
  let* conflict_aborts = geti "conflict_aborts" in
  let* locksub_aborts = geti "locksub_aborts" in
  let* capacity_aborts = geti "capacity_aborts" in
  let* explicit_aborts = geti "explicit_aborts" in
  let* stm_conflict_aborts = geti "stm_conflict_aborts" in
  let* stm_aborts = geti "stm_aborts" in
  let* lock_waits = geti "lock_waits" in
  let* lock_acquires = geti "lock_acquires" in
  let* lock_timeouts = geti "lock_timeouts" in
  let* busyl = Option.bind (Json.member "busy" j) Json.as_list in
  let* busy =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* c = Json.as_int c in
        Some (c :: acc))
      (Some []) busyl
    |> Option.map (fun l -> Array.of_list (List.rev l))
  in
  let* stm_cycles = geti "stm_cycles" in
  let* lock_cycles = geti "lock_cycles" in
  let* offered = geti "offered" in
  let* completed = geti "completed" in
  let* queue_peak = geti "queue_peak" in
  let* sojourn = Option.bind (Json.member "sojourn" j) hist_of_json in
  let* conf_lines = Option.bind (Json.member "conf_lines" j) tallies_of_json in
  let* conf_pcs = Option.bind (Json.member "conf_pcs" j) tallies_of_json in
  Some
    {
      hw_commits;
      irrevocable_commits;
      stm_commits;
      conflict_aborts;
      locksub_aborts;
      capacity_aborts;
      explicit_aborts;
      stm_conflict_aborts;
      stm_aborts;
      lock_waits;
      lock_acquires;
      lock_timeouts;
      busy;
      stm_cycles;
      lock_cycles;
      offered;
      completed;
      queue_peak;
      sojourn;
      conf_lines;
      conf_pcs;
    }

let of_jsonl s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty telemetry document"
  | header :: rest -> (
    match Json.parse header with
    | Error e -> Error ("header: " ^ e)
    | Ok h -> (
      match
        ( Option.bind (Json.member "schema" h) Json.as_string,
          Option.bind (Json.member "version" h) Json.as_int,
          Option.bind (Json.member "width" h) Json.as_int,
          Option.bind (Json.member "threads" h) Json.as_int )
      with
      | Some s, Some v, Some width, Some threads
        when s = schema && v = version ->
        let rec go i acc = function
          | [] -> Ok { width; threads; windows = Array.of_list (List.rev acc) }
          | l :: rest -> (
            match Json.parse l with
            | Error e -> Error (Printf.sprintf "window line %d: %s" i e)
            | Ok j -> (
              match window_of_json j with
              | Some w when Array.length w.busy = threads ->
                go (i + 1) (w :: acc) rest
              | _ -> Error (Printf.sprintf "window line %d: malformed window" i)))
        in
        go 0 [] rest
      | _ -> Error "not a stx-telemetry v1 header"))
