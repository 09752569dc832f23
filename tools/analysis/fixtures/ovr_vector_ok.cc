// Negative fixture: OVRs kept in a table or as views; a std::vector<Ovr>
// named only in a comment is fine.
void Collect(const Movd& movd) {
  OvrTable copies;
  std::vector<OvrView> views;
  std::vector<PoiRef> pois;
  for (const OvrView ovr : movd.ovrs) copies.push_back(ovr);
}
