(* SimCL "compiler": program sources name built-in or synthetic kernels.

   A program source is a ';'-separated list of kernel declarations:

     builtin vec_add; builtin reduce_sum
     synthetic bfs_step flops=12 bytes=16

   Built-ins compute a real function over buffer bytes (so correctness is
   checkable through any virtualization stack); synthetic kernels declare
   only per-work-item flop and byte costs and are used by the Rodinia-
   shaped timing workloads. *)

type resolved_arg =
  | Rmem of bytes  (** the device buffer's backing store *)
  | Rint of int
  | Rfloat of float
  | Rlocal of int

type t = {
  name : string;
  flops_per_item : float;
  bytes_per_item : float;
  run : (resolved_arg array -> int -> unit) option;
      (** [run args work_items]: semantic action, if any *)
}

let get_i32 b i = Int32.to_int (Bytes.get_int32_le b (i * 4))
let set_i32 b i v = Bytes.set_int32_le b (i * 4) (Int32.of_int v)

let arity_fail name = invalid_arg (Printf.sprintf "builtin %s: bad arguments" name)

(* out[i] = a[i] + b[i] over int32 elements. *)
let vec_add =
  {
    name = "vec_add";
    flops_per_item = 1.0;
    bytes_per_item = 12.0;
    run =
      Some
        (fun args n ->
          match args with
          | [| Rmem a; Rmem b; Rmem out |] ->
              let n =
                List.fold_left min n
                  [
                    Bytes.length a / 4; Bytes.length b / 4; Bytes.length out / 4;
                  ]
              in
              for i = 0 to n - 1 do
                set_i32 out i (get_i32 a i + get_i32 b i)
              done
          | _ -> arity_fail "vec_add");
  }

(* out[i] = a[i] * factor over int32 elements. *)
let scale =
  {
    name = "scale";
    flops_per_item = 1.0;
    bytes_per_item = 8.0;
    run =
      Some
        (fun args n ->
          match args with
          | [| Rmem a; Rmem out; Rint factor |] ->
              let n = min n (min (Bytes.length a / 4) (Bytes.length out / 4)) in
              for i = 0 to n - 1 do
                set_i32 out i (get_i32 a i * factor)
              done
          | _ -> arity_fail "scale");
  }

(* out[i] = a[i] lxor key, byte-wise. *)
let xor_bytes =
  {
    name = "xor_bytes";
    flops_per_item = 1.0;
    bytes_per_item = 2.0;
    run =
      Some
        (fun args n ->
          match args with
          | [| Rmem a; Rmem out; Rint key |] ->
              let n = min n (min (Bytes.length a) (Bytes.length out)) in
              for i = 0 to n - 1 do
                Bytes.set out i
                  (Char.chr (Char.code (Bytes.get a i) lxor key land 0xff))
              done
          | _ -> arity_fail "xor_bytes");
  }

(* out[0] (int32) = sum of the first n int32 elements of a. *)
let reduce_sum =
  {
    name = "reduce_sum";
    flops_per_item = 1.0;
    bytes_per_item = 4.0;
    run =
      Some
        (fun args n ->
          match args with
          | [| Rmem a; Rmem out |] ->
              let n = min n (Bytes.length a / 4) in
              let acc = ref 0 in
              for i = 0 to n - 1 do
                acc := !acc + get_i32 a i
              done;
              if Bytes.length out >= 4 then set_i32 out 0 !acc
          | _ -> arity_fail "reduce_sum");
  }

(* 1D 3-point stencil: out[i] = a[i-1] + a[i] + a[i+1] (clamped). *)
let stencil3 =
  {
    name = "stencil3";
    flops_per_item = 2.0;
    bytes_per_item = 16.0;
    run =
      Some
        (fun args n ->
          match args with
          | [| Rmem a; Rmem out |] ->
              let len = min (Bytes.length a / 4) (Bytes.length out / 4) in
              let n = min n len in
              for i = 0 to n - 1 do
                let at j = get_i32 a (max 0 (min (len - 1) j)) in
                set_i32 out i (at (i - 1) + at i + at (i + 1))
              done
          | _ -> arity_fail "stencil3");
  }

(* Timing-only no-op. *)
let noop =
  { name = "noop"; flops_per_item = 1.0; bytes_per_item = 0.0; run = None }

let builtins = [ vec_add; scale; xor_bytes; reduce_sum; stencil3; noop ]

let find_builtin name =
  List.find_opt (fun b -> String.equal b.name name) builtins

(* Program-source parsing. *)

let parse_kv token =
  match String.split_on_char '=' token with
  | [ k; v ] -> Some (k, v)
  | _ -> None

let parse_decl decl =
  let words =
    String.split_on_char ' ' (String.trim decl)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> Ok None
  | [ "builtin"; name ] -> (
      match find_builtin name with
      | Some b -> Ok (Some b)
      | None -> Error (Printf.sprintf "unknown builtin kernel %S" name))
  | "synthetic" :: name :: params ->
      let flops = ref 1.0 and bytes = ref 0.0 in
      let bad = ref None in
      List.iter
        (fun p ->
          match parse_kv p with
          | Some ("flops", v) -> (
              match float_of_string_opt v with
              | Some f -> flops := f
              | None -> bad := Some p)
          | Some ("bytes", v) -> (
              match float_of_string_opt v with
              | Some f -> bytes := f
              | None -> bad := Some p)
          | _ -> bad := Some p)
        params;
      (match !bad with
      | Some p -> Error (Printf.sprintf "bad synthetic parameter %S" p)
      | None ->
          Ok
            (Some
               {
                 name;
                 flops_per_item = !flops;
                 bytes_per_item = !bytes;
                 run = None;
               }))
  | w :: _ -> Error (Printf.sprintf "unknown kernel declaration %S" w)

(* Parse a whole program source into its kernel table. *)
let parse_source source =
  let decls = String.split_on_char ';' source in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
        match parse_decl d with
        | Ok None -> go acc rest
        | Ok (Some k) -> go (k :: acc) rest
        | Error e -> Error e)
  in
  match go [] decls with
  | Ok [] -> Error "program source declares no kernels"
  | other -> other

let synthetic_source ~name ~flops_per_item ~bytes_per_item =
  Printf.sprintf "synthetic %s flops=%g bytes=%g" name flops_per_item
    bytes_per_item
