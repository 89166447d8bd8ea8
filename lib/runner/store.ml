open Stx_sim
open Stx_metrics

(* v5 widened histogram bucket payloads to (index, count, observed max)
   triples and added the stm counter section; v4 added the
   capacity-abort counter and the per-policy tally section; v3 appended
   the metrics-registry section to every entry *)
let format_version = 5

let magic = Printf.sprintf "staggered_tm-result v%d" format_version

let default_dir () =
  match Sys.getenv_opt "STAGGERED_TM_CACHE" with
  | Some d when d <> "" -> d
  | _ ->
    let base =
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> d
      | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Filename.concat h ".cache"
        | _ -> Filename.get_temp_dir_name ())
    in
    Filename.concat base "staggered_tm"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> () (* lost a benign race *)
  end

type t = { dir : string }

let create ?dir () =
  let root = match dir with Some d -> d | None -> default_dir () in
  (* results of incompatible format versions live side by side *)
  let dir = Filename.concat root (Printf.sprintf "v%d" format_version) in
  mkdir_p dir;
  { dir }

let dir t = t.dir

let path t ~key = Filename.concat t.dir (key ^ ".stxr")

(* --- codec -------------------------------------------------------------
   A line-oriented text format: magic line, one "name value" line per
   scalar counter, length-prefixed sections for the frequency tables and
   the per-atomic-block records (entries key-sorted so encoding is a
   function of the stats value alone), and a trailing "end" sentinel so a
   truncated file can never decode. *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let encode (r : Run.t) =
  let s = r.Run.stats in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string b str; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "threads %d" s.Stats.threads;
  List.iter (fun (name, get, _) -> line "%s %d" name (get s)) Stats.counters;
  let freq name tbl =
    let entries = sorted_bindings tbl in
    line "%s %d" name (List.length entries);
    List.iter (fun (k, v) -> line "%d %d" k v) entries
  in
  freq "conf_addr" s.Stats.conf_addr_freq;
  freq "conf_pc" s.Stats.conf_pc_freq;
  let abs = sorted_bindings s.Stats.per_ab in
  line "per_ab %d" (List.length abs);
  List.iter
    (fun (id, (a : Stats.ab_stat)) ->
      line "%d %d %d %d %d" id a.Stats.ab_commits a.Stats.ab_aborts
        a.Stats.ab_locks a.Stats.ab_irrevocable)
    abs;
  (* policy labels never contain spaces (the label charset is
     [a-zA-Z0-9_.:+-]), so a space-separated record is unambiguous *)
  let pols =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Stats.per_policy []
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
  in
  line "per_policy %d" (List.length pols);
  List.iter
    (fun (lbl, (p : Stats.pol_stat)) ->
      line "%s %d %d %d %d" lbl p.Stats.p_commits p.Stats.p_aborts
        p.Stats.p_capacity p.Stats.p_irrevocable)
    pols;
  let mlines = Registry.encode r.Run.metrics in
  line "metrics %d" (List.length mlines);
  List.iter (fun l -> line "%s" l) mlines;
  line "end";
  Buffer.contents b

exception Malformed

let decode text =
  let lines = String.split_on_char '\n' text in
  let lines = ref lines in
  let next () =
    match !lines with
    | l :: rest ->
      lines := rest;
      l
    | [] -> raise Malformed
  in
  let scalar name =
    match String.split_on_char ' ' (next ()) with
    | [ n; v ] when n = name -> (
      match int_of_string_opt v with Some i -> i | None -> raise Malformed)
    | _ -> raise Malformed
  in
  let int_pair line =
    match String.split_on_char ' ' line with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> (a, b)
      | _ -> raise Malformed)
    | _ -> raise Malformed
  in
  try
    if next () <> magic then raise Malformed;
    let threads = scalar "threads" in
    let s = Stats.create ~threads in
    List.iter (fun (name, _, set) -> set s (scalar name)) Stats.counters;
    let freq name tbl =
      let n = scalar name in
      for _ = 1 to n do
        let k, v = int_pair (next ()) in
        Hashtbl.replace tbl k v
      done
    in
    freq "conf_addr" s.Stats.conf_addr_freq;
    freq "conf_pc" s.Stats.conf_pc_freq;
    let n = scalar "per_ab" in
    for _ = 1 to n do
      match String.split_on_char ' ' (next ()) |> List.map int_of_string_opt with
      | [ Some id; Some c; Some a; Some l; Some i ] ->
        let ab = Stats.ab s id in
        ab.Stats.ab_commits <- c;
        ab.Stats.ab_aborts <- a;
        ab.Stats.ab_locks <- l;
        ab.Stats.ab_irrevocable <- i
      | _ -> raise Malformed
    done;
    let n = scalar "per_policy" in
    for _ = 1 to n do
      match String.split_on_char ' ' (next ()) with
      | [ lbl; c; a; cap; i ] -> (
        match
          ( int_of_string_opt c,
            int_of_string_opt a,
            int_of_string_opt cap,
            int_of_string_opt i )
        with
        | Some c, Some a, Some cap, Some i ->
          let p = Stats.policy_tally s lbl in
          p.Stats.p_commits <- c;
          p.Stats.p_aborts <- a;
          p.Stats.p_capacity <- cap;
          p.Stats.p_irrevocable <- i
        | _ -> raise Malformed)
      | _ -> raise Malformed
    done;
    let n = scalar "metrics" in
    let mlines = List.init n (fun _ -> next ()) in
    let metrics =
      match Registry.decode mlines with
      | Some reg -> reg
      | None -> raise Malformed
    in
    if next () <> "end" then raise Malformed;
    Some { Run.stats = s; metrics }
  with Malformed -> None

(* ---------------------------------------------------------------------- *)

let read_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Some text
  | exception _ -> None (* missing or unreadable: a miss, never an error *)

(* write-then-rename: readers (and a kill -9) only ever see a complete
   entry; the temp file lives in the same directory so the rename cannot
   cross filesystems *)
let write_file t file text =
  let tmp =
    Filename.temp_file ~temp_dir:t.dir ("." ^ Filename.basename file) ".tmp"
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text);
    Sys.rename tmp file
  with
  | () -> ()
  | exception e ->
    cleanup ();
    raise e

let load t ~key =
  match read_file (path t ~key) with
  | Some text -> decode text
  | None -> None

let save t ~key run = write_file t (path t ~key) (encode run)

(* --- opaque artifacts --------------------------------------------------
   Rendered deliverables (e.g. the stx_repro report HTML) cached next to
   the result entries. Blobs are raw bytes under the same atomicity
   discipline; the .blob suffix keeps them out of the .stxr namespace. *)

let blob_path t ~key = Filename.concat t.dir (key ^ ".blob")
let save_blob t ~key text = write_file t (blob_path t ~key) text
let load_blob t ~key = read_file (blob_path t ~key)
