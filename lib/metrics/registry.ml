module Json = Stx_util.Json

type labels = (string * string) list
type value = Counter of int | Gauge of int | Histogram of Hist.t

type cell = C of int ref | G of int ref | H of Hist.t

type t = { tbl : (string * labels, cell) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* --- key validation -------------------------------------------------- *)

let name_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* Label values are free-form: every exporter escapes what its framing
   needs — see [codec_escape]; JSON is covered by the RFC 8259 printer.
   Only the empty string stays reserved, so the codec's "-" placeholder
   and the human-readable [label_string] form stay unambiguous. *)
let label_value_ok s = s <> ""

let key name labels =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Registry: bad metric name %S" name);
  let labels = List.sort (fun (a, _) (b, _) -> compare (a : string) b) labels in
  let rec check = function
    | [] -> ()
    | (k, v) :: rest ->
      if not (name_ok k) then
        invalid_arg (Printf.sprintf "Registry: bad label name %S" k);
      if not (label_value_ok v) then
        invalid_arg (Printf.sprintf "Registry: bad label value %S" v);
      (match rest with
      | (k', _) :: _ when k' = k ->
        invalid_arg (Printf.sprintf "Registry: duplicate label %S" k)
      | _ -> ());
      check rest
  in
  check labels;
  (name, labels)

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let cell t key mk =
  match Hashtbl.find_opt t.tbl key with
  | Some c -> c
  | None ->
    let c = mk () in
    Hashtbl.add t.tbl key c;
    c

let type_clash (name, _) have want =
  invalid_arg
    (Printf.sprintf "Registry: %s is a %s, used as a %s" name (kind_name have)
       want)

(* --- resolved handles --------------------------------------------------

   A handle carries its checked, sorted key; the first write binds it to
   the table's cell (creating the cell then), later writes go straight to
   the bound cell. A series resolved but never written therefore stays
   out of the table, and out of every export. *)

type handle = { reg : t; hkey : string * labels; mutable bound : cell option }
type counter = handle
type hist = handle

let resolve t name labels = { reg = t; hkey = key name labels; bound = None }
let counter = resolve
let hist = resolve

let bound h mk =
  match h.bound with
  | Some c -> c
  | None ->
    let c = cell h.reg h.hkey mk in
    h.bound <- Some c;
    c

let add h by =
  if by < 0 then invalid_arg "Registry.add: negative increment";
  match bound h (fun () -> C (ref 0)) with
  | C r -> r := !r + by
  | c -> type_clash h.hkey c "counter"

let record h v =
  match bound h (fun () -> H (Hist.create ())) with
  | H x -> Hist.add x v
  | c -> type_clash h.hkey c "histogram"

(* the string-keyed writers resolve and write in one call *)

let inc t ?(by = 1) name labels = add (counter t name labels) by
let observe t name labels v = record (hist t name labels) v

let set_gauge t name labels v =
  match bound (resolve t name labels) (fun () -> G (ref v)) with
  | G r -> if v > !r then r := v
  | c -> type_clash (name, labels) c "gauge"

let find t name labels = Hashtbl.find_opt t.tbl (key name labels)

let counter_value t name labels =
  match find t name labels with Some (C r) -> !r | _ -> 0

let gauge_value t name labels =
  match find t name labels with Some (G r) -> !r | _ -> 0

let histogram t name labels =
  match find t name labels with Some (H h) -> Some h | _ -> None

(* --- ordered iteration ----------------------------------------------- *)

let sorted t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.tbl []
  |> List.sort (fun ((n1, l1), _) ((n2, l2), _) ->
         match compare (n1 : string) n2 with 0 -> compare l1 l2 | c -> c)

let export = function
  | C r -> Counter !r
  | G r -> Gauge !r
  | H h -> Histogram h

let fold f t init =
  List.fold_left
    (fun acc ((name, labels), c) -> f name labels (export c) acc)
    init (sorted t)

let cardinality t = Hashtbl.length t.tbl

(* --- merge / compare -------------------------------------------------- *)

let merge a b =
  let t = create () in
  let put ((name, _) as k) c =
    match (Hashtbl.find_opt t.tbl k, c) with
    | None, C r -> Hashtbl.add t.tbl k (C (ref !r))
    | None, G r -> Hashtbl.add t.tbl k (G (ref !r))
    | None, H h -> Hashtbl.add t.tbl k (H (Hist.merge h (Hist.create ())))
    | Some (C r0), C r -> r0 := !r0 + !r
    | Some (G r0), G r -> if !r > !r0 then r0 := !r
    | Some (H h0), H h -> Hashtbl.replace t.tbl k (H (Hist.merge h0 h))
    | Some have, want ->
      invalid_arg
        (Printf.sprintf "Registry.merge: %s is a %s on one side, a %s on the other"
           name (kind_name have) (kind_name want))
  in
  Hashtbl.iter put a.tbl;
  Hashtbl.iter put b.tbl;
  t

(* The store codec frames lines with spaces, pairs with commas and
   key/value with '='; free-form values travel with those bytes (plus
   the backslash itself and line breaks) backslash-escaped. *)
let codec_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | ' ' -> Buffer.add_string b "\\s"
      | ',' -> Buffer.add_string b "\\c"
      | '=' -> Buffer.add_string b "\\e"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let codec_unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let ok = ref true in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' when !i + 1 < n ->
      incr i;
      (match s.[!i] with
      | '\\' -> Buffer.add_char b '\\'
      | 's' -> Buffer.add_char b ' '
      | 'c' -> Buffer.add_char b ','
      | 'e' -> Buffer.add_char b '='
      | 'n' -> Buffer.add_char b '\n'
      | 't' -> Buffer.add_char b '\t'
      | 'r' -> Buffer.add_char b '\r'
      | _ -> ok := false)
    | '\\' -> ok := false
    | c -> Buffer.add_char b c);
    incr i
  done;
  if !ok then Some (Buffer.contents b) else None

let label_string labels =
  if labels = [] then "-"
  else
    String.concat ","
      (List.map (fun (k, v) -> k ^ "=" ^ codec_escape v) labels)

let diff a b =
  let describe (name, labels) = Printf.sprintf "%s{%s}" name (label_string labels) in
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let rec walk xs ys =
    match (xs, ys) with
    | [], [] -> ()
    | (k, _) :: rest, [] ->
      note "%s present only on the left" (describe k);
      walk rest []
    | [], (k, _) :: rest ->
      note "%s present only on the right" (describe k);
      walk [] rest
    | ((k1, c1) :: r1 as l1), ((k2, c2) :: r2 as l2) ->
      let cmp =
        match compare (fst k1 : string) (fst k2) with
        | 0 -> compare (snd k1) (snd k2)
        | c -> c
      in
      if cmp < 0 then begin
        note "%s present only on the left" (describe k1);
        walk r1 l2
      end
      else if cmp > 0 then begin
        note "%s present only on the right" (describe k2);
        walk l1 r2
      end
      else begin
        (match (c1, c2) with
        | C a, C b when !a <> !b ->
          note "%s: counter %d vs %d" (describe k1) !a !b
        | G a, G b when !a <> !b -> note "%s: gauge %d vs %d" (describe k1) !a !b
        | H a, H b when not (Hist.equal a b) ->
          note "%s: histogram (%s) vs (%s)" (describe k1)
            (Format.asprintf "%a" Hist.pp a)
            (Format.asprintf "%a" Hist.pp b)
        | C _, C _ | G _, G _ | H _, H _ -> ()
        | a, b ->
          note "%s: %s vs %s" (describe k1) (kind_name a) (kind_name b));
        walk r1 r2
      end
  in
  walk (sorted a) (sorted b);
  List.rev !errs

let equal a b = diff a b = []

(* --- exporters -------------------------------------------------------- *)

let schema_version = 1

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let metric_json (name, labels) c =
  let base = [ ("name", Json.Str name); ("labels", labels_json labels) ] in
  match c with
  | C r -> Json.Obj (base @ [ ("type", Json.Str "counter"); ("value", Json.Int !r) ])
  | G r -> Json.Obj (base @ [ ("type", Json.Str "gauge"); ("value", Json.Int !r) ])
  | H h ->
    Json.Obj
      (base
      @ [
          ("type", Json.Str "histogram");
          ("count", Json.Int (Hist.count h));
          ("sum", Json.Int (Hist.sum h));
          ("min", Json.Int (Hist.min_value h));
          ("max", Json.Int (Hist.max_value h));
          ( "buckets",
            Json.List
              (List.map
                 (fun (k, c, m) -> Json.List [ Json.Int k; Json.Int c; Json.Int m ])
                 (Hist.buckets_full h)) );
        ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "stx-metrics");
      ("version", Json.Int schema_version);
      ("metrics", Json.List (List.map (fun (k, c) -> metric_json k c) (sorted t)));
    ]

let to_json_string t = Json.to_string (to_json t)

(* --- store codec ------------------------------------------------------ *)

let encode t =
  List.map
    (fun ((name, labels), c) ->
      let ls = label_string labels in
      match c with
      | C r -> Printf.sprintf "counter %s %s %d" name ls !r
      | G r -> Printf.sprintf "gauge %s %s %d" name ls !r
      | H h ->
        let triples = Hist.buckets_full h in
        Printf.sprintf "hist %s %s %d %d %d %d %d%s" name ls (Hist.count h)
          (Hist.sum h) (Hist.min_value h) (Hist.max_value h)
          (List.length triples)
          (String.concat ""
             (List.map
                (fun (k, c, m) -> Printf.sprintf " %d %d %d" k c m)
                triples)))
    (sorted t)

let parse_labels s =
  if s = "-" then Some []
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
        match String.index_opt p '=' with
        | None -> None
        | Some i -> (
          let k = String.sub p 0 i
          and raw = String.sub p (i + 1) (String.length p - i - 1) in
          match codec_unescape raw with
          | Some v when name_ok k && label_value_ok v ->
            go ((k, v) :: acc) rest
          | _ -> None))
    in
    go [] parts

let decode lines =
  let t = create () in
  let ok = ref true in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> ok := false; 0 in
  List.iter
    (fun ln ->
      if !ok then
        match String.split_on_char ' ' ln with
        | [ "counter"; name; ls; v ] when name_ok name -> (
          match parse_labels ls with
          | Some labels ->
            let v = int_of v in
            if !ok then Hashtbl.replace t.tbl (name, labels) (C (ref v))
          | None -> ok := false)
        | [ "gauge"; name; ls; v ] when name_ok name -> (
          match parse_labels ls with
          | Some labels ->
            let v = int_of v in
            if !ok then Hashtbl.replace t.tbl (name, labels) (G (ref v))
          | None -> ok := false)
        | "hist" :: name :: ls :: count :: sum :: mn :: mx :: npairs :: rest
          when name_ok name -> (
          match parse_labels ls with
          | Some labels ->
            let count = int_of count
            and sum = int_of sum
            and mn = int_of mn
            and mx = int_of mx
            and npairs = int_of npairs in
            let rec triples acc = function
              | [] -> Some (List.rev acc)
              | k :: c :: m :: rest ->
                triples ((int_of k, int_of c, int_of m) :: acc) rest
              | _ -> None
            in
            (match triples [] rest with
            | Some ps when List.length ps = npairs && !ok -> (
              match
                Hist.restore ~count ~sum ~min_value:mn ~max_value:mx ps
              with
              | Some h -> Hashtbl.replace t.tbl (name, labels) (H h)
              | None -> ok := false)
            | _ -> ok := false)
          | None -> ok := false)
        | _ -> ok := false)
    lines;
  if !ok then Some t else None
