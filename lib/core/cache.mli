(** The switch V2P cache (§3.2): a d-left register-array table with
    per-line access bits and an optional TinyLFU admission filter.

    The table mirrors the paper's P4 layout: one array of keys (VIPs),
    one of values (PIPs), and one of access bits, split into [ways]
    subtables with independent hashes ("Limited Associativity Caching
    in the Data Plane" — associativity without LRU state, feasible as
    [ways] parallel register-array reads). A key can live in one line
    per way; there is no LRU and no chaining. Way 0 hashes with
    {!mix} unseeded, so [ways = 1] is the paper's direct-mapped table.

    Access-bit semantics (paper §3.2, "Cache structure"):
    - a lookup that hits sets the line's access bit;
    - every probed line holding a different key (a conflict miss)
      {e clears} its access bit, marking the entry as
      not-recently-useful so conservative admission can replace it.

    With [~tinylfu:true] a {!Tinylfu} sketch counts every lookup and
    insert; an insert that would evict a resident entry is admitted
    only when the candidate's estimate strictly exceeds the victim's
    (Einziger et al.). Updates and empty-line fills skip the filter. *)

type t

(** Admission policies from Table 1. [`All] always admits (evicting
    if needed); [`A_bit_clear] admits only into an empty line or one
    whose access bit is clear. *)
type admission = [ `All | `A_bit_clear ]

type insert_result =
  | Inserted of (Netcore.Addr.Vip.t * Netcore.Addr.Pip.t) option
      (** admitted; payload is the evicted valid entry, if any — the
          candidate for spillover *)
  | Updated  (** key already present; value refreshed *)
  | Rejected  (** admission policy or filter kept the occupant *)

(** [create ?ways ?tinylfu ~slots ()] is an empty table of [slots] lines
    rounded down to a multiple of [ways] (default 1), split as [ways]
    subtables; [tinylfu] (default false) attaches the admission
    filter, sized for the rounded line count. A table with no lines is
    a legal degenerate cache on which every lookup misses and every
    insert is rejected. Raises [Invalid_argument] if [ways <= 0] or
    [slots < 0]. *)
val create : ?ways:int -> ?tinylfu:bool -> slots:int -> unit -> t

(** [slots t] is the table's line count, after rounding. *)
val slots : t -> int

val ways : t -> int

(** [mix v] is the fixed 31-bit hash the table and the sketch share,
    standing in for the hardware CRC (bit-identical to a splitmix64
    finalizer step, computed in native int limbs so the per-hop path
    stays allocation-free). Way [i] indexes with
    [mix (v lxor (i * 0x27220A95))]. *)
val mix : int -> int

val miss : int
(** the (negative) sentinel {!lookup} returns on a miss *)

(** [lookup t vip] probes the ways in order, applying the access-bit
    side effects described above. Returns {!miss} on a miss; on a
    hit, a non-negative int packing the mapped PIP together with the
    value the access bit had {e before} this lookup — spine switches
    promote an entry to the core tier only when a hit finds the bit
    already set (§3.2.2). Decode with {!hit_pip} / {!hit_bit}. The
    packed form keeps the per-hop path allocation-free. *)
val lookup : t -> Netcore.Addr.Vip.t -> int

(** [hit_pip h] / [hit_bit h] decode a non-[miss] {!lookup} result. *)
val hit_pip : int -> Netcore.Addr.Pip.t

val hit_bit : int -> bool

(** [peek t vip] is a side-effect-free lookup (for tests and metrics). *)
val peek : t -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t option

(** [access_bit t vip] is the line's access bit if [vip] is cached. *)
val access_bit : t -> Netcore.Addr.Vip.t -> bool option

(** [insert t ~admission vip pip] updates [vip]'s line if present, else
    fills the first empty way, else evicts: [`A_bit_clear] replaces the
    first way whose access bit is clear (rejecting when all are set);
    [`All] prefers such a way and falls back to way 0. The filter, if
    attached, may still deny the eviction. A freshly admitted entry
    has its access bit clear. *)
val insert : t -> admission:admission -> Netcore.Addr.Vip.t -> Netcore.Addr.Pip.t -> insert_result

(** [victim_key t vip] is the key (as an int) that
    [insert ~admission:`All t vip _] would evict right now, or [-1]
    when that insert would be an update or fill an empty line.
    Side-effect-free and allocation-free. *)
val victim_key : t -> Netcore.Addr.Vip.t -> int

(** [invalidate t vip ~stale] removes the entry for [vip] if its
    current value equals [stale]; returns whether an entry was
    removed. *)
val invalidate : t -> Netcore.Addr.Vip.t -> stale:Netcore.Addr.Pip.t -> bool

(** [clear t] drops every entry and zeroes the sketch (a switch reboot
    / failure losing its data-plane state). Statistics counters are
    preserved. *)
val clear : t -> unit

(** [occupancy t] is the number of valid entries. *)
val occupancy : t -> int

(** Cumulative statistics since creation. *)
val hits : t -> int

val misses : t -> int
val insertions : t -> int
val evictions : t -> int

(** [rejections t] counts insert attempts the admission policy, the
    filter or a zero-line table turned away — the Table-1 admission
    behaviour the telemetry layer reports per tier. *)
val rejections : t -> int
