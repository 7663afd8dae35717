(** TinyLFU frequency sketch (Einziger et al., "TinyLFU: A Highly
    Efficient Cache Admission Policy") — the admission filter a
    {!Cache} built with [~tinylfu:true] consults before it evicts.

    A 4-bit count-min sketch: 4 register arrays of [width] saturating
    counters (two per byte), [width] the next power of two
    >= max 16 (4 * slots). After every max 64 (10 * slots) touches all
    counters halve, aging out stale history. The sizing is fixed; the
    SRAM costing in [P4model.Resources.sketch_of_slots] mirrors it. *)

(** [mix v] — the fixed 31-bit hash shared by the cache table and the
    sketch, re-exported as {!Cache.mix}; see there. *)
val mix : int -> int

type t

(** [create ~slots] — the sketch for a [slots]-line cache. *)
val create : slots:int -> t

(** [touch t v] counts one access to key [v], saturating at 15, and
    halves every counter when the sample period elapses. *)
val touch : t -> int -> unit

(** [estimate t v] — the current frequency estimate of key [v] in
    [0, 15] (count-min: an upper bound biased by collisions). *)
val estimate : t -> int -> int

(** [clear t] zeroes every counter and restarts the sample period
    (a reboot loses the sketch with the cache). *)
val clear : t -> unit

(** [halvings t] counts sample-period halvings since creation. *)
val halvings : t -> int
