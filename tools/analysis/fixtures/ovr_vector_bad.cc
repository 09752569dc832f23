// Positive fixture: per-OVR heap storage under src/.
void Collect(const Movd& movd) {
  std::vector<Ovr> copies;
  for (const OvrView ovr : movd.ovrs) copies.emplace_back(ovr);
}
