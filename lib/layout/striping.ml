type t = { start_disk : int; stripe_factor : int; stripe_size : int }

let make ~start_disk ~stripe_factor ~stripe_size =
  if start_disk < 0 then invalid_arg "Striping.make: negative start disk";
  if stripe_factor <= 0 then
    invalid_arg "Striping.make: non-positive stripe factor";
  if stripe_size <= 0 then invalid_arg "Striping.make: non-positive stripe size";
  { start_disk; stripe_factor; stripe_size }

let default =
  make ~start_disk:0 ~stripe_factor:8 ~stripe_size:(Dpm_util.Units.kib 64)

let unit_of_offset t off =
  if off < 0 then invalid_arg "Striping.unit_of_offset: negative offset";
  off / t.stripe_size

let disk_of_unit t ~ndisks u =
  if t.stripe_factor > ndisks then
    invalid_arg "Striping.disk_of_unit: stripe factor exceeds disk count";
  if t.start_disk >= ndisks then
    invalid_arg "Striping.disk_of_unit: start disk out of range";
  (t.start_disk + (u mod t.stripe_factor)) mod ndisks

let units_in_file t ~file_bytes =
  if file_bytes <= 0 then 0
  else ((file_bytes - 1) / t.stripe_size) + 1

let disks_used t ~ndisks ~file_bytes =
  let units = units_in_file t ~file_bytes in
  let n = min units t.stripe_factor in
  List.sort_uniq compare
    (List.init n (fun u -> disk_of_unit t ~ndisks u))

let region_disk_spread t ~ndisks ~lo ~hi =
  if hi < lo then []
  else begin
    (* [disk_of_unit] depends only on [u mod stripe_factor], so count the
       units of each residue class inside [lo, hi] and fold the classes
       onto their disks. *)
    let counts = Array.make ndisks 0 in
    let last = min hi (lo + t.stripe_factor - 1) in
    for u = lo to last do
      let d = disk_of_unit t ~ndisks u in
      counts.(d) <- counts.(d) + 1 + ((hi - u) / t.stripe_factor)
    done;
    let spread = ref [] in
    for d = ndisks - 1 downto 0 do
      if counts.(d) > 0 then spread := (d, counts.(d)) :: !spread
    done;
    !spread
  end

let pp ppf t =
  Format.fprintf ppf "(%d, %d, %a)" t.start_disk t.stripe_factor
    Dpm_util.Units.pp_bytes t.stripe_size
