(* The stack's one 64-bit content hash: XXH64 with seed 0.

   Both the transfer cache's content addresses ({!Ava_remoting.Wire.digest})
   and the fault envelope's checksum ({!Faults}) call this kernel, so the
   algorithm is chosen here and nowhere else.  It reads the payload
   8 bytes at a time into four independent lanes, which is what makes it
   several times faster than a byte-serial hash on MB-sized blobs.

   Every helper is inlined into [sub] so that, without flambda, the
   native compiler keeps each [int64] in a register: hashing allocates
   nothing but the boxed result. *)

let prime1 = 0x9E3779B185EBCA87L
let prime2 = 0xC2B2AE3D27D4EB4FL
let prime3 = 0x165667B19E3779F9L
let prime4 = 0x85EBCA77C2B2AE63L
let prime5 = 0x27D4EB2F165667C5L

let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc lane =
  Int64.mul (rotl (Int64.add acc (Int64.mul lane prime2)) 31) prime1

let[@inline] merge h v =
  Int64.add (Int64.mul (Int64.logxor h (round 0L v)) prime1) prime4

let[@inline] u32 b i =
  Int64.of_int
    (Bytes.get_uint16_le b i lor (Bytes.get_uint16_le b (i + 2) lsl 16))

let sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Hash64.sub";
  let stop = pos + len in
  let i = ref pos in
  let h = ref (Int64.add prime5 (Int64.of_int len)) in
  if len >= 32 then begin
    let v1 = ref (Int64.add prime1 prime2)
    and v2 = ref prime2
    and v3 = ref 0L
    and v4 = ref (Int64.neg prime1) in
    let last = stop - 32 in
    while !i <= last do
      let p = !i in
      v1 := round !v1 (Bytes.get_int64_le b p);
      v2 := round !v2 (Bytes.get_int64_le b (p + 8));
      v3 := round !v3 (Bytes.get_int64_le b (p + 16));
      v4 := round !v4 (Bytes.get_int64_le b (p + 24));
      i := p + 32
    done;
    let acc =
      Int64.add
        (Int64.add (rotl !v1 1) (rotl !v2 7))
        (Int64.add (rotl !v3 12) (rotl !v4 18))
    in
    let acc = merge (merge (merge (merge acc !v1) !v2) !v3) !v4 in
    h := Int64.add acc (Int64.of_int len)
  end;
  while !i + 8 <= stop do
    let k = round 0L (Bytes.get_int64_le b !i) in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h k) 27) prime1) prime4;
    i := !i + 8
  done;
  if !i + 4 <= stop then begin
    let k = Int64.mul (u32 b !i) prime1 in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h k) 23) prime2) prime3;
    i := !i + 4
  end;
  while !i < stop do
    let k = Int64.mul (Int64.of_int (Bytes.get_uint8 b !i)) prime5 in
    h := Int64.mul (rotl (Int64.logxor !h k) 11) prime1;
    incr i
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) prime2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) prime3 in
  Int64.logxor h (Int64.shift_right_logical h 32)

let bytes b = sub b ~pos:0 ~len:(Bytes.length b)
