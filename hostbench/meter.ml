(* Host-side measurement shared by every workload: clocks, the payload
   meter the API wrappers feed, in-memory spans with self times, small
   statistics, and the result line.

   Host time is process CPU time ([Sys.time]); wall time is read beside
   it.  Everything here lives in the benchmark: the stack under test is
   only ever called through its public functions. *)

let cpu = Sys.time
let wall = Unix.gettimeofday
let allocated = Gc.allocated_bytes

(* Application payload bytes handed to, or returned by, a guest API. *)
let payload = ref 0
let add_payload n = payload := !payload + n

(* A fault the sensitivity self-test injects into every guest API call;
   a real run leaves it as [ignore]. *)
let inject : (unit -> unit) ref = ref ignore

(* ------------------------------------------------------------ spans -- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0

let no_span = { id = -1; name = ""; parent = -1; start = 0.0; stop = 0.0 }

(* Open a span whose end is stamped later by [close_span] (used where
   the children are opened from other simulation processes). *)
let open_span ?(parent = -1) name =
  if not !tracing then no_span
  else begin
    incr next_id;
    let s = { id = !next_id; name; parent; start = wall (); stop = 0.0 } in
    spans := s :: !spans;
    s
  end

let close_span s = if s.id >= 0 then s.stop <- wall ()

(* Run [f] inside a span named [name]; off the traced run this is a
   plain call.  Parents are passed explicitly: simulation processes
   interleave, so a global span stack would misattribute children. *)
let span ?parent name f =
  if not !tracing then f ()
  else
    let s = open_span ?parent name in
    match f () with
    | v ->
        close_span s;
        v
    | exception e ->
        close_span s;
        raise e

let reset_spans () =
  spans := [];
  next_id := 0

(* Length of the union of intervals. *)
let union_length ivs =
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
        | None -> go acc (Some (a, b)) rest)
  in
  go 0.0 None (List.sort compare ivs)

(* Per span name: (covered seconds, self seconds, count).  Self time is
   the time covered by the name's spans minus the time covered by their
   children (clipped to the parent).  Spans of concurrent simulation
   processes overlap; overlapping time counts once, so with one process
   this is the usual duration-minus-children. *)
let self_times () =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let own = Hashtbl.create 16 and kids = Hashtbl.create 16 and count = Hashtbl.create 16 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  List.iter
    (fun s ->
      push own s.name (s.start, s.stop);
      Hashtbl.replace count s.name (1 + Option.value (Hashtbl.find_opt count s.name) ~default:0);
      match Hashtbl.find_opt by_id s.parent with
      | Some p ->
          let a = Float.max s.start p.start and b = Float.min s.stop p.stop in
          if b > a then push kids p.name (a, b)
      | None -> ())
    !spans;
  Hashtbl.fold
    (fun name ivs acc ->
      let covered = union_length ivs in
      let children = union_length (Option.value (Hashtbl.find_opt kids name) ~default:[]) in
      (name, (covered, covered -. children, Hashtbl.find count name)) :: acc)
    own []
  |> List.sort compare

(* Spans as JSON lines, times in seconds from the first span. *)
let write_spans path =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n" s.id
        s.name s.parent (s.start -. t0) (s.stop -. t0))
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------- statistics -- *)

let quantile q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Run [f] for repetitions 0, 1, ... until [seconds] of wall time have
   passed and at least [min_reps] have run. *)
let repeat ~seconds ~min_reps f =
  let t0 = wall () in
  let rec go i acc =
    if i >= min_reps && wall () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ----------------------------------------------------------- result -- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (json_number x.m_value) x.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
