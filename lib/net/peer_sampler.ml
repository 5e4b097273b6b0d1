let uniform_sample rng ~n ~k ~exclude =
  let candidates = ref [] in
  for i = n - 1 downto 0 do
    if not (exclude i) then candidates := i :: !candidates
  done;
  Rng.sample_without_replacement rng k !candidates
