(* Campaign operations: generation and corpus serialization.

   Tenant references are admission slots, not VM ids, so a shrunk
   subsequence keeps meaning: dropping the Admit that created slot 2
   silently no-ops every later op on slot 2 rather than renumbering the
   survivors.  The generator is pure in its RNG — the campaign derives
   one stream per iteration, so iteration k's trace is reproducible
   from (campaign seed, k) alone. *)

open Ava_sim

type workload = Vec_add of int | Bench of string

type kind =
  | Admit
  | Retire of int
  | Submit of int * workload
  | Migrate of int * int
  | Kill_device of int
  | Rebalance
  | Crash of int * int
  | Flip_faults of string
  | Swap_pressure of int * int
  | Quota_exhaust of int
  | Submit_nc of int * int
  | Submit_qa of int * int

type op = { delay_ns : int; kind : kind }
type trace = op list

let pp_workload ppf = function
  | Vec_add n -> Format.fprintf ppf "vec_add %d" n
  | Bench b -> Format.fprintf ppf "bench %s" b

let pp_kind ppf = function
  | Admit -> Format.pp_print_string ppf "admit"
  | Retire s -> Format.fprintf ppf "retire %d" s
  | Submit (s, w) -> Format.fprintf ppf "submit %d %a" s pp_workload w
  | Migrate (s, d) -> Format.fprintf ppf "migrate %d %d" s d
  | Kill_device d -> Format.fprintf ppf "kill %d" d
  | Rebalance -> Format.pp_print_string ppf "rebalance"
  | Crash (s, ns) -> Format.fprintf ppf "crash %d %d" s ns
  | Flip_faults p -> Format.fprintf ppf "flip %s" p
  | Swap_pressure (s, n) -> Format.fprintf ppf "swap-pressure %d %d" s n
  | Quota_exhaust s -> Format.fprintf ppf "quota-exhaustion %d" s
  | Submit_nc (s, n) -> Format.fprintf ppf "submit-nc %d %d" s n
  | Submit_qa (s, k) -> Format.fprintf ppf "submit-qa %d %d" s k

(* --- generation ----------------------------------------------------------- *)

type genconfig = { g_devices : int; g_max_tenants : int; g_length : int }

(* The Rodinia subset cheap enough to appear dozens of times per
   iteration; correctness is carried by Vec_add, these exercise the
   realistic call mixes (phases, arg updates, finish barriers). *)
let benches = [| "bfs"; "nn"; "pathfinder" |]

let gen_workload rng =
  if Rng.int rng 10 < 7 then Vec_add (64 * (1 + Rng.int rng 4))
  else Bench benches.(Rng.int rng (Array.length benches))

(* Mostly back-to-back ops (delay 0) so structural races stay likely,
   with occasional sub-millisecond gaps to shift phase against the
   retry watchdog and drain windows. *)
let gen_delay rng =
  if Rng.int rng 4 = 0 then Rng.exponential_ns rng ~mean_ns:(Time.us 50)
  else 0

(* One weighted op.  [admitted] counts slots created so far: every
   tenant-referencing op needs at least one, so the first op of any
   trace is an Admit. *)
let gen_kind rng cfg ~admitted =
  let slot () = Rng.int rng admitted in
  let pick_weighted choices =
    let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
    let rec go n = function
      | [] -> assert false
      | (w, k) :: rest -> if n < w then k () else go (n - w) rest
    in
    go (Rng.int rng total) choices
  in
  if admitted = 0 then Admit
  else
    pick_weighted
      [
        (3, fun () -> Admit);
        (8, fun () -> Submit (slot (), gen_workload rng));
        (2, fun () -> Retire (slot ()));
        (2, fun () -> Migrate (slot (), Rng.int rng cfg.g_devices));
        (1, fun () -> Kill_device (Rng.int rng cfg.g_devices));
        (1, fun () -> Rebalance);
        (1, fun () -> Crash (slot (), Time.ms (1 + Rng.int rng 20)));
        ( 1,
          fun () ->
            Flip_faults (if Rng.bool rng then "light" else "none") );
        (1, fun () -> Swap_pressure (slot (), 2 + Rng.int rng 4));
        (1, fun () -> Quota_exhaust (slot ()));
        (2, fun () -> Submit_nc (slot (), 16 * (1 + Rng.int rng 4)));
        (2, fun () -> Submit_qa (slot (), 1 + Rng.int rng 8));
      ]

let gen rng cfg =
  let admitted = ref 0 in
  List.init cfg.g_length (fun _ ->
      let kind = gen_kind rng cfg ~admitted:!admitted in
      (match kind with
      | Admit when !admitted < cfg.g_max_tenants -> incr admitted
      | _ -> ());
      { delay_ns = gen_delay rng; kind })

(* --- corpus serialization ------------------------------------------------- *)

let to_line op = Format.asprintf "op %d %a" op.delay_ns pp_kind op.kind

let of_line line =
  let fail () = Error (Printf.sprintf "malformed op line %S" line) in
  let int_of s = int_of_string_opt s in
  match String.split_on_char ' ' (String.trim line) with
  | "op" :: delay :: rest -> (
      match (int_of delay, rest) with
      | Some delay_ns, [ "admit" ] -> Ok { delay_ns; kind = Admit }
      | Some delay_ns, [ "retire"; s ] -> (
          match int_of s with
          | Some s -> Ok { delay_ns; kind = Retire s }
          | None -> fail ())
      | Some delay_ns, [ "submit"; s; "vec_add"; n ] -> (
          match (int_of s, int_of n) with
          | Some s, Some n -> Ok { delay_ns; kind = Submit (s, Vec_add n) }
          | _ -> fail ())
      | Some delay_ns, [ "submit"; s; "bench"; b ] -> (
          match int_of s with
          | Some s -> Ok { delay_ns; kind = Submit (s, Bench b) }
          | None -> fail ())
      | Some delay_ns, [ "migrate"; s; d ] -> (
          match (int_of s, int_of d) with
          | Some s, Some d -> Ok { delay_ns; kind = Migrate (s, d) }
          | _ -> fail ())
      | Some delay_ns, [ "kill"; d ] -> (
          match int_of d with
          | Some d -> Ok { delay_ns; kind = Kill_device d }
          | None -> fail ())
      | Some delay_ns, [ "rebalance" ] -> Ok { delay_ns; kind = Rebalance }
      | Some delay_ns, [ "crash"; s; ns ] -> (
          match (int_of s, int_of ns) with
          | Some s, Some ns -> Ok { delay_ns; kind = Crash (s, ns) }
          | _ -> fail ())
      | Some delay_ns, [ "flip"; p ] -> Ok { delay_ns; kind = Flip_faults p }
      | Some delay_ns, [ "swap-pressure"; s; n ] -> (
          match (int_of s, int_of n) with
          | Some s, Some n -> Ok { delay_ns; kind = Swap_pressure (s, n) }
          | _ -> fail ())
      | Some delay_ns, [ "quota-exhaustion"; s ] -> (
          match int_of s with
          | Some s -> Ok { delay_ns; kind = Quota_exhaust s }
          | None -> fail ())
      | Some delay_ns, [ "submit-nc"; s; n ] -> (
          match (int_of s, int_of n) with
          | Some s, Some n -> Ok { delay_ns; kind = Submit_nc (s, n) }
          | _ -> fail ())
      | Some delay_ns, [ "submit-qa"; s; k ] -> (
          match (int_of s, int_of k) with
          | Some s, Some k -> Ok { delay_ns; kind = Submit_qa (s, k) }
          | _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()
