(* TinyLFU frequency sketch (Einziger et al.): a 4-bit count-min
   sketch tracks approximate access frequency so a cache can admit an
   evicting insert only when the candidate is estimated hotter than
   its victim. Counters halve after every [sample] touches, aging
   history so the sketch follows the working set.

   The sketch is dataplane-shaped: [rows] register arrays of [width]
   4-bit saturating counters (two per byte), indexed by per-row hashes
   of the key — exactly the structure a Tofino stage can host, which
   is what the [P4model.Resources] sketch costing charges for. *)

(* Fixed hash shared by the cache table and this sketch, standing in
   for the hardware CRC; [Cache.mix] re-exports it (the sketch sits
   below the table in the dependency order). Bit-identical to the
   splitmix64 finalizer step
     z = of_int (v * 0x9E3779B9);
     to_int ((mul (logxor z (lsr z 30)) 0xBF58476D1CE4E5B9L) lsr 33)
   but computed in native int limbs: boxed Int64 temporaries would cost
   ~6 minor words per lookup, and this runs on the per-hop path. Only
   the high 31 bits of the 64-bit product are needed, so the multiply
   keeps just the carry into the high limb. *)
let mix v =
  let a = v * 0x9E3779B9 in
  let lo = a land 0xFFFFFFFF and hi = (a asr 32) land 0xFFFFFFFF in
  let lo1 = (lo lxor ((hi lsl 2) lor (lo lsr 30))) land 0xFFFFFFFF in
  let hi1 = hi lxor (hi lsr 30) in
  let cl = 0x1CE4E5B9 and ch = 0xBF58476D in
  let carry = (lo1 * cl) lsr 32 in
  let mid =
    ((((lo1 lsr 16) * ch) land 0xFFFF) lsl 16)
    + ((lo1 land 0xFFFF) * ch)
    + (hi1 * cl)
    + carry
  in
  (mid land 0xFFFFFFFF) lsr 1

type t = {
  counters : Bytes.t; (* rows * width nibbles, two per byte *)
  width : int;
  sample : int;
  mutable touches : int;
  mutable halvings : int;
}

let rows = 4

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* ~4 counters per cached line per row (the classic "sketch much larger
   than the cache" sizing), floor 16 so tiny caches still discriminate;
   one halving per ~10 accesses per line. *)
let create ~slots =
  let width = next_pow2 (max 16 (4 * slots)) in
  {
    counters = Bytes.make (((rows * width) + 1) / 2) '\000';
    width;
    sample = max 64 (10 * slots);
    touches = 0;
    halvings = 0;
  }

(* Per-row index: the shared hash over the key perturbed by a fixed
   per-row constant (row 0 unseeded; independence across rows is what
   count-min needs, not agreement with the cache's index). *)
let col_of t r v = mix (v lxor (r * 0x1B873593)) mod t.width

let nibble t i =
  let b = Char.code (Bytes.get t.counters (i lsr 1)) in
  if i land 1 = 0 then b land 0xF else b lsr 4

let set_nibble t i x =
  let j = i lsr 1 in
  let b = Char.code (Bytes.get t.counters j) in
  let b' = if i land 1 = 0 then b land 0xF0 lor x else b land 0x0F lor (x lsl 4) in
  Bytes.set t.counters j (Char.chr b')

let halve t =
  for j = 0 to Bytes.length t.counters - 1 do
    let b = Char.code (Bytes.get t.counters j) in
    (* Both nibbles halved in one shift: clear the bit that crosses
       the nibble boundary and the top bit. *)
    Bytes.set t.counters j (Char.chr ((b lsr 1) land 0x77))
  done;
  t.halvings <- t.halvings + 1

let touch t v =
  for r = 0 to rows - 1 do
    let i = (r * t.width) + col_of t r v in
    let x = nibble t i in
    if x < 15 then set_nibble t i (x + 1)
  done;
  t.touches <- t.touches + 1;
  if t.touches >= t.sample then begin
    t.touches <- 0;
    halve t
  end

let estimate t v =
  let e = ref 15 in
  for r = 0 to rows - 1 do
    let x = nibble t ((r * t.width) + col_of t r v) in
    if x < !e then e := x
  done;
  !e

let clear t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\000';
  t.touches <- 0

let halvings t = t.halvings
