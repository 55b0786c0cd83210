(* Open-addressing hash index keyed on interned key-column ids.

   Rows live in flat parallel arrays (boxed tuple + count + the key's
   value ids, flattened; the tuple's hash once the index is edited in
   place); the table stores chain heads (row + 1, 0 = empty) with
   linear probing between distinct keys and an intra-key [next] chain.
   Probing therefore costs an int-mix of the key ids and a handful of
   int compares — no per-probe tuple hashing or boxed key allocation.
   Counts may be negative (signed deltas index fine); a count that
   reaches exactly zero under [apply_signed] is dead and skipped by
   every reader. *)

type t = {
  key_pos : int array;
  karity : int;
  mutable tups : Tuple.t array;
  mutable counts : int array;
  mutable keys : int array;  (* flat: row * karity + c *)
  mutable hashes : int array;
      (* Tuple.hash of each row's tuple, parallel to [tups] — filled on
         the first [apply_signed]; empty for build-once join indexes. *)
  mutable n : int;  (* rows, dead included *)
  mutable slots : int array;  (* chain heads: row + 1; 0 = empty *)
  mutable next : int array;
  mutable used : int;  (* occupied slots (distinct keys) *)
  mutable dead : int;  (* rows whose count reached exactly 0 (tombstones) *)
}

let dummy_tuple = Tuple.of_list []

let hash_ids ids off karity =
  let h = ref 0x9e3779b9 in
  for c = 0 to karity - 1 do
    h := (!h * 486187739) + ids.(off + c)
  done;
  !h land max_int

let row_hash t row = hash_ids t.keys (row * t.karity) t.karity

let keys_equal_rows t a b =
  let ka = a * t.karity and kb = b * t.karity in
  let rec go c =
    c >= t.karity || (t.keys.(ka + c) = t.keys.(kb + c) && go (c + 1))
  in
  go 0

let keys_equal_probe t row (ids : int array) =
  let k = row * t.karity in
  let rec go c = c >= t.karity || (t.keys.(k + c) = ids.(c) && go (c + 1)) in
  go 0

let create ~key_pos cap =
  let cap = max cap 8 in
  let scap =
    let rec up n = if n >= 2 * cap then n else up (2 * n) in
    up 16
  in
  { key_pos; karity = Array.length key_pos;
    tups = Array.make cap dummy_tuple; counts = Array.make cap 0;
    keys = Array.make (cap * Array.length key_pos + 1) 0;
    hashes = [||]; n = 0;
    slots = Array.make scap 0; next = Array.make cap (-1); used = 0;
    dead = 0 }

(* Link [row] into the table: linear-probe for its key's slot. *)
let link t row =
  let mask = Array.length t.slots - 1 in
  let h = ref (row_hash t row land mask) in
  let placed = ref false in
  while not !placed do
    let head = t.slots.(!h) in
    if head = 0 then begin
      t.slots.(!h) <- row + 1;
      t.next.(row) <- -1;
      t.used <- t.used + 1;
      placed := true
    end
    else if keys_equal_rows t (head - 1) row then begin
      t.next.(row) <- head - 1;
      t.slots.(!h) <- row + 1;
      placed := true
    end
    else h := (!h + 1) land mask
  done

let rehash t =
  let scap = 2 * Array.length t.slots in
  t.slots <- Array.make scap 0;
  t.used <- 0;
  for row = 0 to t.n - 1 do
    link t row
  done

let hashed t = Array.length t.hashes > 0

let grow_rows t =
  let cap = 2 * Array.length t.tups in
  let tups = Array.make cap dummy_tuple in
  Array.blit t.tups 0 tups 0 t.n;
  t.tups <- tups;
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 t.n;
  t.counts <- counts;
  let keys = Array.make (cap * t.karity + 1) 0 in
  Array.blit t.keys 0 keys 0 (t.n * t.karity);
  t.keys <- keys;
  if hashed t then begin
    let hashes = Array.make cap 0 in
    Array.blit t.hashes 0 hashes 0 t.n;
    t.hashes <- hashes
  end;
  let next = Array.make cap (-1) in
  Array.blit t.next 0 next 0 t.n;
  t.next <- next

(* Append a new row and link it. The slot table grows first, while it
   holds only the existing rows: rehashing after counting the new row in
   would link it twice, chaining it to itself. *)
let push_row t tup count =
  if t.n = Array.length t.tups then grow_rows t;
  if 2 * t.used >= Array.length t.slots then rehash t;
  let row = t.n in
  t.tups.(row) <- tup;
  t.counts.(row) <- count;
  if hashed t then t.hashes.(row) <- Tuple.hash tup;
  let k = row * t.karity in
  for c = 0 to t.karity - 1 do
    t.keys.(k + c) <- Value.intern (Tuple.get tup t.key_pos.(c))
  done;
  t.n <- row + 1;
  link t row

let add t tup n = if n <> 0 then push_row t tup n

let of_counted ~key_pos entries =
  let t = create ~key_pos (List.length entries) in
  List.iter (fun (tup, n) -> add t tup n) entries;
  t

let of_bag ~key_pos bag =
  let t = create ~key_pos (Bag.distinct bag) in
  Bag.iter (fun tup n -> add t tup n) bag;
  t

(* Chain head for the key given as interned ids, or -1. *)
let find_head t (ids : int array) =
  let mask = Array.length t.slots - 1 in
  let s = ref (hash_ids ids 0 t.karity land mask) in
  let res = ref (-2) in
  while !res = -2 do
    let head = t.slots.(!s) in
    if head = 0 then res := -1
    else if keys_equal_probe t (head - 1) ids then res := head - 1
    else s := (!s + 1) land mask
  done;
  !res

let fold_ids t ids f acc =
  let rec go row acc =
    if row < 0 then acc
    else
      go t.next.(row)
        (if t.counts.(row) = 0 then acc else f t.tups.(row) t.counts.(row) acc)
  in
  go (find_head t ids) acc

let find t key =
  fold_ids t (Tuple.intern key) (fun tup n acc -> (tup, n) :: acc) []

let key_of t tup = Tuple.project_pos t.key_pos tup

let find_matching t tup = find t (key_of t tup)

(* Live groups, rebuilt by scan (test/debug surface, not a hot path). *)
let groups t =
  let heads = Hashtbl.create (t.used + 1) in
  for row = 0 to t.n - 1 do
    if t.counts.(row) <> 0 then begin
      let key = key_of t t.tups.(row) in
      let existing =
        match Hashtbl.find_opt heads key with Some l -> l | None -> []
      in
      Hashtbl.replace heads key ((t.tups.(row), t.counts.(row)) :: existing)
    end
  done;
  Hashtbl.fold (fun key entries acc -> (key, entries) :: acc) heads []

let n_keys t = List.length (groups t)

(* Tombstone compaction: slide live rows down over the dead ones and
   relink every chain from scratch. Row order within a key's chain is
   not preserved — consumers canonicalize into bags, so only the set of
   live (tuple, count) entries matters, and that is untouched. *)
let compact t =
  let m = ref 0 in
  for row = 0 to t.n - 1 do
    if t.counts.(row) <> 0 then begin
      let m' = !m in
      if m' <> row then begin
        t.tups.(m') <- t.tups.(row);
        t.counts.(m') <- t.counts.(row);
        t.hashes.(m') <- t.hashes.(row);
        Array.blit t.keys (row * t.karity) t.keys (m' * t.karity) t.karity
      end;
      incr m
    end
  done;
  for row = !m to t.n - 1 do
    t.tups.(row) <- dummy_tuple;
    t.counts.(row) <- 0
  done;
  t.n <- !m;
  t.dead <- 0;
  Array.fill t.slots 0 (Array.length t.slots) 0;
  t.used <- 0;
  for row = 0 to t.n - 1 do
    link t row
  done

(* In-place signed migration. The empty-delta fast path returns before
   touching (or allocating) anything — per-transaction maintenance
   calls this for every live index, delta or no delta. *)
let apply_signed t delta =
  if not (Signed_bag.is_zero delta) then begin
    if not (hashed t) then
      t.hashes <-
        Array.init (Array.length t.tups) (fun row ->
            if row < t.n then Tuple.hash t.tups.(row) else 0);
    Signed_bag.fold
      (fun tup n () ->
        let ids =
          Array.map
            (fun p -> Value.intern (Tuple.get tup p))
            t.key_pos
        in
        (* The tuple's row is found by walking its key's chain, comparing
           stored hashes before tuples, so a key shared by many rows costs
           int compares. A tuple's tombstone revives when the tuple comes
           back: a row deleted and re-inserted keeps one row instead of
           lengthening its chain by a tombstone per round trip. *)
        let h = Tuple.hash tup in
        let rec adjust row =
          if row < 0 then push_row t tup n
          else if t.hashes.(row) = h && Tuple.equal t.tups.(row) tup then begin
            let was = t.counts.(row) in
            if was = 0 then t.dead <- t.dead - 1;
            t.counts.(row) <- was + n;
            if was + n = 0 then t.dead <- t.dead + 1
          end
          else adjust t.next.(row)
        in
        adjust (find_head t ids))
      delta ();
    (* Long-lived indexes under churn accumulate count-0 tombstones that
       every probe must skip and that keep forcing slot-table growth.
       Rehash in place once tombstones dominate: amortized O(1) per
       migrated entry, and row/slot storage stays proportional to the
       live population. *)
    if t.n >= 16 && 2 * t.dead >= t.n then compact t
  end

(* Live entries as a signed bag: duplicate rows of one tuple (possible
   through [of_counted]) sum, and tombstones and chain order drop out. *)
let live t =
  let acc = ref Signed_bag.zero in
  for row = 0 to t.n - 1 do
    if t.counts.(row) <> 0 then
      acc := Signed_bag.add t.tups.(row) t.counts.(row) !acc
  done;
  !acc

let equal a b = a.key_pos = b.key_pos && Signed_bag.equal (live a) (live b)

type occupancy = { rows : int; live : int; tombstones : int; slots : int }

let occupancy t =
  { rows = t.n; live = t.n - t.dead; tombstones = t.dead;
    slots = Array.length t.slots }
