(* A per-VM seq window: one cell per seq in [base, top), at
   [seq land (cap - 1)] of a ring that doubles when a seq lands a full
   capacity past the base.  The router and the server each keep one per
   VM, over their own cells; this module owns the rule that frees them. *)

let horizon = 4096
let max_span = 1 lsl 20
let initial_cells = 16

type 'a t = {
  empty : 'a;
  resolved : 'a -> bool;
  mutable cells : 'a array;
  mutable base : int;
  mutable top : int;
}

let create ~empty ~resolved =
  { empty; resolved; cells = Array.make initial_cells empty; base = 0; top = 0 }

let base w = w.base
let top w = w.top
let slot w seq = seq land (Array.length w.cells - 1)

let get w seq =
  if seq < w.base || seq >= w.top then w.empty else w.cells.(slot w seq)

let set w seq c = if seq >= w.base && seq < w.top then w.cells.(slot w seq) <- c

(* The horizon rule: the base passes a resolved cell once it is
   [horizon] behind [newest]; an unresolved one is a hole it waits at. *)
let pass w ~newest =
  while newest - w.base >= horizon && w.resolved (get w w.base) do
    w.cells.(slot w w.base) <- w.empty;
    w.base <- w.base + 1
  done

let advance w = pass w ~newest:(w.top - 1)

let rec fit cap span = if cap >= span then cap else fit (2 * cap) span

(* Re-lay the window over [base, top) in a fresh ring, cell [s] from
   [f s]; [f] still reads the old window through [get]. *)
let rebuild w ~base ~top f =
  let cells = Array.make (fit initial_cells (top - base)) w.empty in
  for s = base to top - 1 do
    cells.(s land (Array.length cells - 1)) <- f s
  done;
  w.cells <- cells;
  w.base <- base;
  w.top <- top

let extend w seq =
  if seq >= w.top then begin
    pass w ~newest:seq;
    if seq - w.base >= Array.length w.cells then
      rebuild w ~base:w.base ~top:(seq + 1) (get w)
    else w.top <- seq + 1
  end

let clear w = rebuild w ~base:w.base ~top:w.base (fun _ -> w.empty)

let fold w f acc =
  let rec go seq acc =
    if seq < w.base then acc else go (seq - 1) (f seq (get w seq) acc)
  in
  go (w.top - 1) acc
