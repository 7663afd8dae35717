module Vip = Netcore.Addr.Vip
module Pip = Netcore.Addr.Pip

(* d-left table: [ways] subtables of [sub] lines each, one independent
   hash per subtable. A lookup probes one line per way (d register-array
   reads with precomputed indices in hardware); an insert goes to the
   first empty way — with one line per bucket, "least loaded"
   degenerates to "first subtable with a free line", the standard
   d-left tie-break.

   Layout is subtable-major over flat arrays, the paper's three
   register arrays, so the SRAM costing is line-exact: way [i] owns
   indices [i*sub, (i+1)*sub). *)

type t = {
  keys : int array; (* -1 = empty *)
  values : int array;
  access : Bytes.t;
  ways : int;
  sub : int; (* lines per subtable *)
  n : int; (* ways * sub *)
  sketch : Tinylfu.t option; (* the TinyLFU admission filter *)
  mutable occupancy : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejections : int;
}

type admission = [ `All | `A_bit_clear ]

type insert_result =
  | Inserted of (Vip.t * Pip.t) option
  | Updated
  | Rejected

let create ?(ways = 1) ?(tinylfu = false) ~slots () =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if slots < 0 then invalid_arg "Cache.create: negative slots";
  (* The partitioner's slot shares carry no divisibility guarantee. *)
  let n = slots - (slots mod ways) in
  {
    keys = Array.make n (-1);
    values = Array.make n (-1);
    access = Bytes.make n '\000';
    ways;
    sub = n / ways;
    n;
    sketch = (if tinylfu then Some (Tinylfu.create ~slots:n) else None);
    occupancy = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejections = 0;
  }

let slots t = t.n
let ways t = t.ways
let mix = Tinylfu.mix

(* Line index of key [v] in way [i]. Way 0 is unseeded; later ways
   perturb the key with fixed constants, standing in for independent
   hardware CRC polynomials. *)
let idx_of t v i = (i * t.sub) + (mix (v lxor (i * 0x27220A95)) mod t.sub)

let miss = -1
let hit_pip h = Pip.of_int (h lsr 1)
let hit_bit h = h land 1 = 1

let touch t v = match t.sketch with None -> () | Some s -> Tinylfu.touch s v

(* The probes below are top-level recursive functions over their
   arguments, not local closures: they run on the per-hop path, and a
   closure per call would allocate. *)

let rec lookup_from t v i =
  if i >= t.ways then begin
    t.misses <- t.misses + 1;
    miss
  end
  else begin
    let idx = idx_of t v i in
    let key = t.keys.(idx) in
    if key = v then begin
      t.hits <- t.hits + 1;
      let was_set = if Bytes.get t.access idx = '\001' then 1 else 0 in
      Bytes.set t.access idx '\001';
      (t.values.(idx) lsl 1) lor was_set
    end
    else begin
      (* A probed occupant that was not the key loses its access bit:
         it was consulted and was not useful. *)
      if key >= 0 then Bytes.set t.access idx '\000';
      lookup_from t v (i + 1)
    end
  end

let lookup t vip =
  let v = Vip.to_int vip in
  touch t v;
  if t.n = 0 then begin
    t.misses <- t.misses + 1;
    miss
  end
  else lookup_from t v 0

(* The line holding key [v], or -1. *)
let rec find t v i =
  if i >= t.ways then -1
  else
    let idx = idx_of t v i in
    if t.keys.(idx) = v then idx else find t v (i + 1)

let peek t vip =
  if t.n = 0 then None
  else
    let idx = find t (Vip.to_int vip) 0 in
    if idx < 0 then None else Some (Pip.of_int t.values.(idx))

let access_bit t vip =
  if t.n = 0 then None
  else
    let idx = find t (Vip.to_int vip) 0 in
    if idx < 0 then None else Some (Bytes.get t.access idx = '\001')

(* Where an insert of [v] lands, from one pass that hashes each way
   once, packed as [idx lsl 2 lor tag]: [found] (the key's line),
   [empty] (the first empty way), [clear_bit] (every way occupied; the
   first whose access bit is clear) or [full] (every bit set; [idx] is
   way 0, the `All fallback). An int, not a variant: this runs on the
   learn stage of the per-hop path. *)
let found = 0
let empty = 1
let clear_bit = 2
let full = 3

let rec scan t v i way0 first_empty first_clear =
  if i >= t.ways then
    if first_empty >= 0 then (first_empty lsl 2) lor empty
    else if first_clear >= 0 then (first_clear lsl 2) lor clear_bit
    else (way0 lsl 2) lor full
  else
    let idx = idx_of t v i in
    let key = t.keys.(idx) in
    if key = v then (idx lsl 2) lor found
    else
      scan t v (i + 1)
        (if i = 0 then idx else way0)
        (if key < 0 && first_empty < 0 then idx else first_empty)
        (if key >= 0 && first_clear < 0 && Bytes.get t.access idx = '\000'
         then idx
         else first_clear)

let reject t =
  t.rejections <- t.rejections + 1;
  Rejected

(* TinyLFU: evict only for a candidate estimated hotter than the
   victim. Without a sketch every eviction is admitted. *)
let filter_admits t v victim =
  match t.sketch with
  | None -> true
  | Some s -> Tinylfu.estimate s v > Tinylfu.estimate s victim

let insert t ~admission vip pip =
  let v = Vip.to_int vip in
  touch t v;
  if t.n = 0 then reject t
  else begin
    let probe = scan t v 0 (-1) (-1) (-1) in
    let idx = probe lsr 2 and tag = probe land 3 in
    if tag = found then begin
      t.values.(idx) <- Pip.to_int pip;
      Updated
    end
    else if tag = empty then begin
      t.keys.(idx) <- v;
      t.values.(idx) <- Pip.to_int pip;
      Bytes.set t.access idx '\000';
      t.occupancy <- t.occupancy + 1;
      t.insertions <- t.insertions + 1;
      Inserted None
    end
    else
      match admission with
      | `A_bit_clear when tag = full -> reject t
      | `All | `A_bit_clear ->
          let victim = t.keys.(idx) in
          if not (filter_admits t v victim) then reject t
          else begin
            let evicted = (Vip.of_int victim, Pip.of_int t.values.(idx)) in
            t.keys.(idx) <- v;
            t.values.(idx) <- Pip.to_int pip;
            Bytes.set t.access idx '\000';
            t.insertions <- t.insertions + 1;
            t.evictions <- t.evictions + 1;
            Inserted (Some evicted)
          end
  end

let victim_key t vip =
  if t.n = 0 then -1
  else
    let probe = scan t (Vip.to_int vip) 0 (-1) (-1) (-1) in
    if probe land 3 <= empty then -1 else t.keys.(probe lsr 2)

let invalidate t vip ~stale =
  if t.n = 0 then false
  else begin
    let idx = find t (Vip.to_int vip) 0 in
    if idx >= 0 && t.values.(idx) = Pip.to_int stale then begin
      t.keys.(idx) <- -1;
      t.values.(idx) <- -1;
      Bytes.set t.access idx '\000';
      t.occupancy <- t.occupancy - 1;
      true
    end
    else false
  end

let clear t =
  Array.fill t.keys 0 t.n (-1);
  Array.fill t.values 0 t.n (-1);
  Bytes.fill t.access 0 t.n '\000';
  t.occupancy <- 0;
  Option.iter Tinylfu.clear t.sketch

let occupancy t = t.occupancy
let hits t = t.hits
let misses t = t.misses
let insertions t = t.insertions
let evictions t = t.evictions
let rejections t = t.rejections
