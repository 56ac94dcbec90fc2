(* Serialized graph-file format understood by the simulated stick.

   Layout (little-endian):
     "NCSG" | n_layers:i32 | output_bytes:i32 | flops:f64 * n | padding

   Padding inflates the file to the declared size so graph upload time
   matches a real network's weight volume (Inception v3 is ~90 MB). *)

type t = { layer_flops : float list; output_bytes : int }

let magic = "NCSG"

(* Minimum file size for a layer count. *)
let header_bytes n_layers = 4 + 4 + 4 + (8 * n_layers)

let encode ?total_bytes { layer_flops; output_bytes } =
  let n = List.length layer_flops in
  let min_size = header_bytes n in
  let size =
    match total_bytes with
    | None -> min_size
    | Some s when s < min_size ->
        invalid_arg "Graphdef.encode: total_bytes smaller than header"
    | Some s -> s
  in
  let b = Bytes.create size in
  Bytes.fill b 0 size '\000';
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int n);
  Bytes.set_int32_le b 8 (Int32.of_int output_bytes);
  List.iteri
    (fun i f -> Bytes.set_int64_le b (12 + (8 * i)) (Int64.bits_of_float f))
    layer_flops;
  b

let decode b =
  if Bytes.length b < 12 then Error `Bad_graph
  else if not (String.equal (Bytes.sub_string b 0 4) magic) then
    Error `Bad_graph
  else
    let n = Int32.to_int (Bytes.get_int32_le b 4) in
    let output_bytes = Int32.to_int (Bytes.get_int32_le b 8) in
    if n < 0 || n > 10_000 || output_bytes < 0 then Error `Bad_graph
    else if Bytes.length b < header_bytes n then Error `Bad_graph
    else
      let layer_flops =
        List.init n (fun i ->
            Int64.float_of_bits (Bytes.get_int64_le b (12 + (8 * i))))
      in
      Ok { layer_flops; output_bytes }
