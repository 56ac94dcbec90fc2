(* Flat 4-ary min-heap keyed by (time, sequence-number).

   The sequence number breaks ties so that events scheduled for the same
   instant fire in insertion order, which keeps the whole simulation
   deterministic.

   Layout is chosen for the engine's hot path (one add + one pop per
   simulated event, heap fully resident in L1):

   - Keys, sequence numbers and payload-slot indices live in flat
     parallel [int array]s, so pushing allocates nothing and sift
     comparisons are immediate-int loads with no pointer chase.

   - Payloads sit in a separate slot table and never move during sifts:
     the heap permutes only slot *indices*.  Moving an ['a] payload
     through a major-heap array would pay the [caml_modify] write
     barrier per level; moving an int does not.  A free-slot stack
     recycles vacated slots in O(1).

   - The heap is 4-ary rather than binary: half the depth, and the four
     children of a node are adjacent in memory, so a pop touches ~half
     the cache lines of a binary sift-down.

   Vacated payload slots are overwritten with a dummy on every pop so
   the heap never keeps a popped closure (and whatever continuation or
   buffer it captured) alive — see the liveness regression test in
   test_sim. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> index into [data] *)
  mutable data : 'a array; (* slot -> payload, stable across sifts *)
  mutable free : int array; (* stack of free slot indices *)
  mutable nfree : int;
  mutable size : int;
}

(* Placeholder stored in empty payload slots.  An immediate value cast
   to ['a]: [Array.make] on it builds a regular (non-float) array, and
   polymorphic get/set on such an array are safe for any ['a] (floats
   are simply kept boxed).  Cleared slots are never read. *)
let dummy : unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    keys = [||];
    seqs = [||];
    slots = [||];
    data = [||];
    free = [||];
    nfree = 0;
    size = 0;
  }

let[@inline] size t = t.size
let[@inline] is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nkeys = Array.make ncap 0 in
  let nseqs = Array.make ncap 0 in
  let nslots = Array.make ncap 0 in
  let ndata = Array.make ncap (dummy ()) in
  let nfree = Array.make ncap 0 in
  Array.blit t.keys 0 nkeys 0 t.size;
  Array.blit t.seqs 0 nseqs 0 t.size;
  Array.blit t.slots 0 nslots 0 t.size;
  Array.blit t.data 0 ndata 0 cap;
  Array.blit t.free 0 nfree 0 t.nfree;
  (* Newly minted slots go on the free stack. *)
  for s = cap to ncap - 1 do
    nfree.(t.nfree + s - cap) <- s
  done;
  t.nfree <- t.nfree + (ncap - cap);
  t.keys <- nkeys;
  t.seqs <- nseqs;
  t.slots <- nslots;
  t.data <- ndata;
  t.free <- nfree

(* Every index below is bounded by [t.size <= Array.length t.keys]
   (checked on entry or maintained by the sift loops), so the loops use
   unsafe accesses: the bounds checks were a measurable fraction of the
   per-event cost on the non-flambda compiler. *)

let add t ~key ~seq payload =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  (* Claim a payload slot; the single barriered store per push. *)
  t.nfree <- t.nfree - 1;
  let slot = Array.unsafe_get t.free t.nfree in
  Array.unsafe_set t.data slot payload;
  (* Sift up with a hole: parents move down until the position for the
     new entry is found, then it is written once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys parent in
    if pk > key || (pk = key && Array.unsafe_get seqs parent > seq) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Unchecked accessors for the engine's drain loop, which has already
   established non-emptiness for the iteration. *)
let[@inline] unsafe_min_key t = Array.unsafe_get t.keys 0
let[@inline] unsafe_min_seq t = Array.unsafe_get t.seqs 0

(* Remove the root: the last entry sifts down from the top (hole
   technique — the smallest child moves up, the displaced entry is
   written once).  Only ints move; the payload table is untouched. *)
let remove_min t =
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    let keys = t.keys and seqs = t.seqs and slots = t.slots in
    let key = Array.unsafe_get keys n
    and seq = Array.unsafe_get seqs n
    and slot = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (!i lsl 2) + 1 in
      if base >= n then continue := false
      else begin
        (* Smallest of the (up to four, memory-adjacent) children. *)
        let last = base + 3 in
        let last = if last < n then last else n - 1 in
        let c = ref base in
        let ck = ref (Array.unsafe_get keys base) in
        for j = base + 1 to last do
          let jk = Array.unsafe_get keys j in
          if
            jk < !ck
            || (jk = !ck && Array.unsafe_get seqs j < Array.unsafe_get seqs !c)
          then begin
            c := j;
            ck := jk
          end
        done;
        let c = !c and ck = !ck in
        if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set keys !i ck;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end

(* Precondition: non-empty. *)
let unsafe_pop t =
  let slot = Array.unsafe_get t.slots 0 in
  let payload = Array.unsafe_get t.data slot in
  (* Clear the slot (so the payload is not retained) and recycle it. *)
  Array.unsafe_set t.data slot (dummy ());
  Array.unsafe_set t.free t.nfree slot;
  t.nfree <- t.nfree + 1;
  remove_min t;
  payload
