(** Semantic fingerprints: canonical, process-stable cache keys.

    A mapping is a deterministic function of (DFG, architecture, fault set,
    mapper, seed, compiler version), so a cache key must be exactly that
    tuple — nothing more (no pointers, no timestamps) and nothing less (two
    different fault sets must never alias).  Every component is rendered to
    a canonical text form and digested with MD5:

    - the DFG through {!Plaid_mapping.Mapfile.dfg_to_lines}, the same
      canonical serialization the mapfile and fuzz-corpus formats share;
    - the architecture through {!Plaid_arch.Arch.fingerprint_lines}, a
      structural dump that includes the attached fault set (sorted, so
      fault-list order cannot split the cache);
    - the mapper as its configuration string, which callers take from
      {!Compile.name} rather than writing by hand;
    - {!version}, the compiler-version salt, so keys survive process
      restarts but never alias across code changes that alter mapping
      results or blob formats.

    Keys are 32-character lowercase hex strings, safe as file names. *)

val version : string
(** The compiler-version salt mixed into every key.  Bump the embedded
    schema tag whenever mapper behaviour or the blob format changes;
    the mapfile format version is appended automatically.  [plaidc
    --version] prints this string so operators can correlate cache
    generations with builds. *)

val digest_hex : string -> string
(** MD5 of a string as lowercase hex — the digest primitive every
    fingerprint below uses (stable across processes and machines). *)

val dfg : Plaid_ir.Dfg.t -> string
(** Digest of the DFG's canonical line form. *)

val arch : Plaid_arch.Arch.t -> string
(** Digest of the architecture's structural dump, fault set included:
    {!Plaid_arch.Arch.fingerprint}, computed once per value and cached on
    it.  {!Plaid_arch.Arch.set_faults} and {!Plaid_arch.Arch.set_config}
    return values with a fresh digest, so a key always reflects the
    value's own faults and config profile. *)

val key :
  dfg:Plaid_ir.Dfg.t ->
  arch:Plaid_arch.Arch.t ->
  mapper:string ->
  seed:int ->
  string
(** The cache key for one compilation request.  Distinct canonical
    components give distinct keys (modulo MD5 collisions); identical
    components give identical keys in every process. *)
