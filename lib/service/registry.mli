(** The overlay registry: named, already-generated overlays kept warm for
    the compile service.

    Each entry pairs an overlay (sysADG + synthesized resources + trained
    model) with the stable structural fingerprint of its sysADG.  Two
    entries registered under different names but structurally identical
    designs share the same fingerprint — and therefore share schedule
    cache entries, which is exactly what content addressing buys.
    Thread-safe.

    Backed by an {!Overgen_store.Store}, registrations write through to
    disk and a fresh registry on the same store restores every named
    overlay — a restarted service serves the same names without
    regenerating anything.  Persisted designs lead with their canonical
    {!Overgen_adg.Serial} text, re-validated (parse + fingerprint match)
    at load; records that fail validation or carry an older schema are
    skipped, never misparsed. *)

type entry = {
  name : string;
  overlay : Overgen.overlay;
  fingerprint : string;  (** {!Overgen_adg.Serial.fingerprint} of the sysADG *)
}

type t

val create : ?store:Overgen_store.Store.t -> unit -> t
(** With [store], previously persisted overlays are restored in
    registration order and later registrations write through. *)

val register : t -> name:string -> Overgen.overlay -> (entry, string) result
(** Errors if [name] is already taken. *)

val remove : t -> string -> (entry, string) result
(** Unregister [name], returning its entry; errors if unknown.  With a
    backing store the persisted record is deleted too, so a registry
    restored from the same store stays retired.  The fleet manager's
    retire path — schedule-cache records keyed by the entry's fingerprint
    are purged separately ({!Cache.purge_fingerprint}) only when no other
    registered name aliases the same design. *)

val find : t -> string -> entry option

val find_fingerprint : t -> string -> entry list
(** All entries aliasing one design structure, registration order. *)

val names : t -> string list
(** Registration order. *)
