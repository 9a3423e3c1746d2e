module Lts = Mv_lts.Lts
module Label = Mv_lts.Label

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt
let magic = "MVB\x01"
let format_version = 1

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE), table-driven                                         *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* Incremental form: [crc_init |> crc_update s1 |> ... |> crc_finish]
   equals [crc32 (s1 ^ ...)], which is what lets the streaming writer
   checksum the transition section while it is still being spilled. *)
let crc_init = 0xFFFFFFFF

let crc_update c s =
  let table = Lazy.force crc_table in
  let c = ref c in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c

let crc_finish c = c lxor 0xFFFFFFFF
let crc32 s = crc_finish (crc_update crc_init s)

(* ------------------------------------------------------------------ *)
(* Varints (unsigned LEB128)                                           *)

let add_varint buffer n =
  if n < 0 then invalid_arg "Mvb: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buffer (Char.chr n)
    else begin
      Buffer.add_char buffer (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let add_u32le buffer n =
  for shift = 0 to 3 do
    Buffer.add_char buffer (Char.chr ((n lsr (8 * shift)) land 0xff))
  done

(* ------------------------------------------------------------------ *)
(* Byte sources: a common cursor over strings and channels, with
   truncation reported as Corrupt                                      *)

type source = { read_char : unit -> char; read_string : int -> string }

let source_of_string s =
  let pos = ref 0 in
  let read_char () =
    if !pos >= String.length s then corrupt "truncated input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let read_string n =
    if !pos + n > String.length s then corrupt "truncated input";
    let sub = String.sub s !pos n in
    pos := !pos + n;
    sub
  in
  { read_char; read_string }

let source_of_channel ic =
  let read_char () =
    try input_char ic with End_of_file -> corrupt "truncated input"
  in
  let read_string n =
    try really_input_string ic n
    with End_of_file -> corrupt "truncated input"
  in
  { read_char; read_string }

let read_varint source =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow";
    let byte = Char.code (source.read_char ()) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_u32le source =
  let b0 = Char.code (source.read_char ()) in
  let b1 = Char.code (source.read_char ()) in
  let b2 = Char.code (source.read_char ()) in
  let b3 = Char.code (source.read_char ()) in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

(* ------------------------------------------------------------------ *)
(* Writer: emit one fully-buffered section at a time                   *)

let max_section_bytes = 1 lsl 30

let emit_section emit tag payload =
  let head = Buffer.create 16 in
  Buffer.add_char head tag;
  add_varint head (String.length payload);
  emit (Buffer.contents head);
  emit payload;
  let trailer = Buffer.create 4 in
  add_u32le trailer (crc32 payload);
  emit (Buffer.contents trailer)

let write_sections emit lts =
  emit magic;
  emit (String.make 1 (Char.chr format_version));
  let labels = Lts.labels lts in
  let nb_labels = Label.count labels in
  let meta = Buffer.create 32 in
  add_varint meta (Lts.nb_states lts);
  add_varint meta (Lts.initial lts);
  add_varint meta nb_labels;
  add_varint meta (Lts.nb_transitions lts);
  emit_section emit 'M' (Buffer.contents meta);
  let table = Buffer.create (16 * nb_labels) in
  for l = 0 to nb_labels - 1 do
    let name = Label.name labels l in
    add_varint table (String.length name);
    Buffer.add_string table name
  done;
  emit_section emit 'L' (Buffer.contents table);
  let transitions = Buffer.create (4 * Lts.nb_transitions lts) in
  for s = 0 to Lts.nb_states lts - 1 do
    add_varint transitions (Lts.out_degree lts s);
    Lts.iter_out lts s (fun l d ->
        add_varint transitions l;
        add_varint transitions d)
  done;
  emit_section emit 'T' (Buffer.contents transitions);
  emit "E"

let to_string lts =
  let buffer = Buffer.create 4096 in
  write_sections (Buffer.add_string buffer) lts;
  Buffer.contents buffer

let write_channel oc lts = write_sections (output_string oc) lts

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

(* Shared section parsers (used by the in-memory reader, the mmap
   segment reader and the header-only [stats]) *)

let parse_meta meta =
  let nb_states = read_varint meta in
  let initial = read_varint meta in
  let nb_labels = read_varint meta in
  let nb_transitions = read_varint meta in
  if nb_states < 1 then corrupt "no states";
  if initial >= nb_states then corrupt "initial state out of range";
  if nb_labels < 1 then corrupt "no labels";
  (nb_states, initial, nb_labels, nb_transitions)

let parse_label_table ~nb_labels payload =
  let table = source_of_string payload in
  let labels = Label.create () in
  for l = 0 to nb_labels - 1 do
    let name = table.read_string (read_varint table) in
    if l = 0 then begin
      if name <> Label.tau_name then
        corrupt "label 0 is %S, expected the internal action" name
    end
    else if Label.intern labels name <> l then corrupt "duplicate label %S" name
  done;
  labels

let read_magic source =
  let header = source.read_string (String.length magic) in
  if header <> magic then corrupt "bad magic (not a .mvb file)";
  let version = Char.code (source.read_char ()) in
  if version <> format_version then
    corrupt "unsupported format version %d (this reader handles %d)" version
      format_version

let read_section source expected_tag =
  let tag = source.read_char () in
  if tag <> expected_tag then
    corrupt "expected section '%c', found '%c'" expected_tag tag;
  let length = read_varint source in
  if length > max_section_bytes then
    corrupt "section '%c' is absurdly large (%d bytes)" expected_tag length;
  let payload = source.read_string length in
  let stored_crc = read_u32le source in
  if crc32 payload <> stored_crc then
    corrupt "CRC mismatch in section '%c'" expected_tag;
  payload

let read_source source =
  read_magic source;
  let nb_states, initial, nb_labels, nb_transitions =
    parse_meta (source_of_string (read_section source 'M'))
  in
  let labels = parse_label_table ~nb_labels (read_section source 'L') in
  let transitions = source_of_string (read_section source 'T') in
  let triples = Array.make nb_transitions (0, 0, 0) in
  let i = ref 0 in
  for s = 0 to nb_states - 1 do
    let degree = read_varint transitions in
    let last_l = ref (-1) and last_d = ref (-1) in
    for _ = 1 to degree do
      if !i >= nb_transitions then corrupt "more transitions than declared";
      let l = read_varint transitions in
      let d = read_varint transitions in
      if l >= nb_labels then corrupt "label index %d out of range" l;
      if d >= nb_states then corrupt "destination state %d out of range" d;
      if l < !last_l || (l = !last_l && d <= !last_d) then
        corrupt "transitions of state %d out of order" s;
      last_l := l;
      last_d := d;
      triples.(!i) <- (s, l, d);
      incr i
    done
  done;
  if !i <> nb_transitions then
    corrupt "fewer transitions than declared (%d of %d)" !i nb_transitions;
  let tag = source.read_char () in
  if tag <> 'E' then corrupt "missing end marker";
  Lts.make_array ~nb_states ~initial ~labels triples

let of_string s =
  let source = source_of_string s in
  let lts = read_source source in
  (match source.read_char () with
   | _ -> corrupt "trailing garbage after end marker"
   | exception Corrupt _ -> ());
  lts

let read_channel ic = read_source (source_of_channel ic)

let write_file path lts =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc lts)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lts = read_channel ic in
      (match input_char ic with
       | _ -> corrupt "trailing garbage after end marker"
       | exception End_of_file -> ());
      lts)

(* ------------------------------------------------------------------ *)
(* Varints, exposed for boundary tests                                 *)

module Varint = struct
  let to_string n =
    let buffer = Buffer.create 10 in
    add_varint buffer n;
    Buffer.contents buffer

  let of_string s =
    let source = source_of_string s in
    let n = read_varint source in
    (match source.read_char () with
     | _ -> corrupt "trailing garbage after varint"
     | exception Corrupt _ -> ());
    n
end

(* ------------------------------------------------------------------ *)
(* Streaming writer: one state at a time, transitions spilled to a
   scratch file, final sections assembled at [finish]                  *)

module Stream = struct
  type writer = {
    w_path : string;
    w_scratch : string;
    w_labels : Label.table;
    mutable w_oc : out_channel option; (* scratch T payload; None = done *)
    mutable w_crc : int; (* running CRC of the T payload *)
    mutable w_states : int;
    mutable w_transitions : int;
    mutable w_bytes : int; (* T payload bytes written so far *)
    mutable w_max_dst : int;
    mutable w_max_label : int;
    w_buf : Buffer.t;
  }

  let create ?labels path =
    let labels = match labels with Some t -> t | None -> Label.create () in
    let scratch = path ^ ".ttmp" in
    let oc = open_out_bin scratch in
    {
      w_path = path;
      w_scratch = scratch;
      w_labels = labels;
      w_oc = Some oc;
      w_crc = crc_init;
      w_states = 0;
      w_transitions = 0;
      w_bytes = 0;
      w_max_dst = -1;
      w_max_label = 0;
      w_buf = Buffer.create 256;
    }

  let labels w = w.w_labels
  let nb_states w = w.w_states
  let nb_transitions w = w.w_transitions

  let oc w =
    match w.w_oc with
    | Some oc -> oc
    | None -> invalid_arg "Mvb.Stream: writer already finished"

  (* Canonicalize exactly like [Lts.make]: sort by (label, dst), drop
     duplicates. The stream writer is then byte-identical to the
     materialized writer by construction, whatever order the caller
     discovered the moves in. *)
  let canonical moves =
    let moves = Array.copy moves in
    Array.sort compare moves;
    let n = Array.length moves in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if !k = 0 || moves.(!k - 1) <> moves.(i) then begin
        moves.(!k) <- moves.(i);
        incr k
      end
    done;
    Array.sub moves 0 !k

  let add_state w moves =
    let oc = oc w in
    let moves = canonical moves in
    Buffer.clear w.w_buf;
    add_varint w.w_buf (Array.length moves);
    Array.iter
      (fun (l, d) ->
        if l < 0 || d < 0 then invalid_arg "Mvb.Stream.add_state: negative";
        if l > w.w_max_label then w.w_max_label <- l;
        if d > w.w_max_dst then w.w_max_dst <- d;
        add_varint w.w_buf l;
        add_varint w.w_buf d)
      moves;
    let chunk = Buffer.contents w.w_buf in
    output_string oc chunk;
    w.w_crc <- crc_update w.w_crc chunk;
    w.w_bytes <- w.w_bytes + String.length chunk;
    w.w_states <- w.w_states + 1;
    w.w_transitions <- w.w_transitions + Array.length moves

  let abort w =
    match w.w_oc with
    | None -> ()
    | Some oc ->
      w.w_oc <- None;
      close_out_noerr oc;
      (try Sys.remove w.w_scratch with Sys_error _ -> ())

  let finish w ~initial =
    let scratch_oc = oc w in
    w.w_oc <- None;
    close_out scratch_oc;
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          (try Sys.remove w.w_scratch with Sys_error _ -> ());
          invalid_arg ("Mvb.Stream.finish: " ^ msg))
        fmt
    in
    let nb_labels = Label.count w.w_labels in
    if w.w_states < 1 then fail "no states";
    if initial < 0 || initial >= w.w_states then fail "initial out of range";
    if w.w_max_dst >= w.w_states then
      fail "destination %d out of range (%d states)" w.w_max_dst w.w_states;
    if w.w_max_label >= nb_labels then
      fail "label %d out of range (%d labels)" w.w_max_label nb_labels;
    let tmp = w.w_path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       output_string oc magic;
       output_string oc (String.make 1 (Char.chr format_version));
       let emit = output_string oc in
       let meta = Buffer.create 32 in
       add_varint meta w.w_states;
       add_varint meta initial;
       add_varint meta nb_labels;
       add_varint meta w.w_transitions;
       emit_section emit 'M' (Buffer.contents meta);
       let table = Buffer.create (16 * nb_labels) in
       for l = 0 to nb_labels - 1 do
         let name = Label.name w.w_labels l in
         add_varint table (String.length name);
         Buffer.add_string table name
       done;
       emit_section emit 'L' (Buffer.contents table);
       let head = Buffer.create 16 in
       Buffer.add_char head 'T';
       add_varint head w.w_bytes;
       emit (Buffer.contents head);
       let ic = open_in_bin w.w_scratch in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let chunk = Bytes.create 65536 in
           let rec copy remaining =
             if remaining > 0 then begin
               let n = input ic chunk 0 (min remaining (Bytes.length chunk)) in
               if n = 0 then fail "scratch file truncated";
               output oc (Bytes.sub chunk 0 n) 0 n;
               copy (remaining - n)
             end
           in
           copy w.w_bytes);
       let trailer = Buffer.create 4 in
       add_u32le trailer (crc_finish w.w_crc);
       emit (Buffer.contents trailer);
       emit "E";
       close_out oc
     with exn ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       (try Sys.remove w.w_scratch with Sys_error _ -> ());
       raise exn);
    Sys.remove w.w_scratch;
    Sys.rename tmp w.w_path
end

(* ------------------------------------------------------------------ *)
(* Random-access segment reader over an mmap'd file                    *)

module Segment = struct
  type map =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* States per directory entry: the decode cost of a random [iter_out]
     is bounded by one directory stride. *)
  let stride = 1024

  type t = {
    map : map;
    nb_states : int;
    initial : int;
    nb_transitions : int;
    labels : Label.table;
    t_off : int; (* absolute offset of the T payload in [map] *)
    dir : int array; (* dir.(k) = offset of state [k * stride] *)
  }

  let nb_states t = t.nb_states
  let initial t = t.initial
  let nb_transitions t = t.nb_transitions
  let labels t = t.labels
  let file_bytes t = Bigarray.Array1.dim t.map

  let source_of_map map =
    let pos = ref 0 in
    let len = Bigarray.Array1.dim map in
    let read_char () =
      if !pos >= len then corrupt "truncated input";
      let c = Bigarray.Array1.unsafe_get map !pos in
      incr pos;
      c
    in
    let read_string n =
      if n < 0 || !pos + n > len then corrupt "truncated input";
      let b = Bytes.create n in
      for i = 0 to n - 1 do
        Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get map (!pos + i))
      done;
      pos := !pos + n;
      Bytes.unsafe_to_string b
    in
    (pos, { read_char; read_string })

  (* Raw varint decode at [!pos] in the payload window [lo, hi). *)
  let read_varint_at map ~hi pos =
    let rec go shift acc =
      if shift > 62 then corrupt "varint overflow";
      if !pos >= hi then corrupt "truncated transition section";
      let byte = Char.code (Bigarray.Array1.unsafe_get map !pos) in
      incr pos;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let openfile path =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    let map =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          if size = 0 then corrupt "empty file";
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))
    in
    Mv_obs.Obs.add (Mv_obs.Obs.counter "mvb.mmap_bytes")
      (Bigarray.Array1.dim map);
    let pos, source = source_of_map map in
    read_magic source;
    let nb_states, initial, nb_labels, nb_transitions =
      parse_meta (source_of_string (read_section source 'M'))
    in
    let labels = parse_label_table ~nb_labels (read_section source 'L') in
    (* T section: checksum chunk-wise, then decode once to validate and
       build the segment directory — never materializing the payload. *)
    let tag = source.read_char () in
    if tag <> 'T' then corrupt "expected section 'T', found '%c'" tag;
    let t_len = read_varint source in
    if t_len > max_section_bytes then
      corrupt "section 'T' is absurdly large (%d bytes)" t_len;
    let t_off = !pos in
    let crc = ref crc_init in
    let remaining = ref t_len in
    while !remaining > 0 do
      let n = min !remaining 65536 in
      crc := crc_update !crc (source.read_string n);
      remaining := !remaining - n
    done;
    let stored_crc = read_u32le source in
    if crc_finish !crc <> stored_crc then corrupt "CRC mismatch in section 'T'";
    let tag = source.read_char () in
    if tag <> 'E' then corrupt "missing end marker";
    if !pos <> Bigarray.Array1.dim map then
      corrupt "trailing garbage after end marker";
    let hi = t_off + t_len in
    let dir = Array.make (((nb_states - 1) / stride) + 1) 0 in
    let cursor = ref t_off in
    let seen = ref 0 in
    for s = 0 to nb_states - 1 do
      if s mod stride = 0 then dir.(s / stride) <- !cursor;
      let degree = read_varint_at map ~hi cursor in
      let last_l = ref (-1) and last_d = ref (-1) in
      for _ = 1 to degree do
        if !seen >= nb_transitions then corrupt "more transitions than declared";
        incr seen;
        let l = read_varint_at map ~hi cursor in
        let d = read_varint_at map ~hi cursor in
        if l >= nb_labels then corrupt "label index %d out of range" l;
        if d >= nb_states then corrupt "destination state %d out of range" d;
        if l < !last_l || (l = !last_l && d <= !last_d) then
          corrupt "transitions of state %d out of order" s;
        last_l := l;
        last_d := d
      done
    done;
    if !seen <> nb_transitions then
      corrupt "fewer transitions than declared (%d of %d)" !seen nb_transitions;
    if !cursor <> hi then corrupt "transition section has trailing bytes";
    { map; nb_states; initial; nb_transitions; labels; t_off; dir }

  let hi t = Bigarray.Array1.dim t.map (* validated stricter at open *)

  let iter_out t s f =
    if s < 0 || s >= t.nb_states then invalid_arg "Mvb.Segment.iter_out";
    let hi = hi t in
    let cursor = ref t.dir.(s / stride) in
    for _ = 1 to s mod stride do
      let degree = read_varint_at t.map ~hi cursor in
      for _ = 1 to 2 * degree do
        ignore (read_varint_at t.map ~hi cursor)
      done
    done;
    let degree = read_varint_at t.map ~hi cursor in
    for _ = 1 to degree do
      let l = read_varint_at t.map ~hi cursor in
      let d = read_varint_at t.map ~hi cursor in
      f l d
    done

  let out_degree t s =
    if s < 0 || s >= t.nb_states then invalid_arg "Mvb.Segment.out_degree";
    let hi = hi t in
    let cursor = ref t.dir.(s / stride) in
    for _ = 1 to s mod stride do
      let degree = read_varint_at t.map ~hi cursor in
      for _ = 1 to 2 * degree do
        ignore (read_varint_at t.map ~hi cursor)
      done
    done;
    read_varint_at t.map ~hi cursor

  let iter_all t f =
    let hi = hi t in
    let cursor = ref t.t_off in
    for s = 0 to t.nb_states - 1 do
      let degree = read_varint_at t.map ~hi cursor in
      for _ = 1 to degree do
        let l = read_varint_at t.map ~hi cursor in
        let d = read_varint_at t.map ~hi cursor in
        f s l d
      done
    done
end

(* ------------------------------------------------------------------ *)
(* Header-only statistics                                              *)

type stats = {
  s_nb_states : int;
  s_initial : int;
  s_nb_labels : int;
  s_nb_transitions : int;
  s_label_bytes : int;
  s_transition_bytes : int;
  s_file_bytes : int;
}

let stats path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let source = source_of_channel ic in
      read_magic source;
      let nb_states, initial, nb_labels, nb_transitions =
        parse_meta (source_of_string (read_section source 'M'))
      in
      let tag = source.read_char () in
      if tag <> 'L' then corrupt "expected section 'L', found '%c'" tag;
      let label_bytes = read_varint source in
      if label_bytes > max_section_bytes then
        corrupt "section 'L' is absurdly large (%d bytes)" label_bytes;
      seek_in ic (pos_in ic + label_bytes + 4);
      let tag = source.read_char () in
      if tag <> 'T' then corrupt "expected section 'T', found '%c'" tag;
      let transition_bytes = read_varint source in
      if transition_bytes > max_section_bytes then
        corrupt "section 'T' is absurdly large (%d bytes)" transition_bytes;
      seek_in ic (pos_in ic + transition_bytes + 4);
      let tag = source.read_char () in
      if tag <> 'E' then corrupt "missing end marker";
      (match input_char ic with
       | _ -> corrupt "trailing garbage after end marker"
       | exception End_of_file -> ());
      {
        s_nb_states = nb_states;
        s_initial = initial;
        s_nb_labels = nb_labels;
        s_nb_transitions = nb_transitions;
        s_label_bytes = label_bytes;
        s_transition_bytes = transition_bytes;
        s_file_bytes = in_channel_length ic;
      })
