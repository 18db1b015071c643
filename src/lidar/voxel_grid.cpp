#include "lidar/voxel_grid.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"
#include "obs/obs.hpp"

namespace s2a::lidar {

VoxelGrid::VoxelGrid(VoxelGridConfig config)
    : cfg_(config),
      occ_(static_cast<std::size_t>(config.nx) * config.ny * config.nz, false) {
  S2A_CHECK(config.nx > 0 && config.ny > 0 && config.nz > 0);
  S2A_CHECK(config.extent > 0.0 && config.z_max > config.z_min);
}

std::size_t VoxelGrid::index(int ix, int iy, int iz) const {
  S2A_DCHECK(ix >= 0 && ix < cfg_.nx);
  S2A_DCHECK(iy >= 0 && iy < cfg_.ny);
  S2A_DCHECK(iz >= 0 && iz < cfg_.nz);
  return (static_cast<std::size_t>(iz) * cfg_.ny + iy) * cfg_.nx + ix;
}

// One serial pass over the returns: binning runs at a few ns per return,
// so a whole scan costs less than waking the pool would.
VoxelGrid VoxelGrid::from_cloud(const sim::PointCloud& cloud,
                                const VoxelGridConfig& cfg,
                                double ground_tolerance) {
  S2A_TRACE_SCOPE_CAT("lidar.voxelize", "lidar");
  VoxelGrid grid(cfg);
  for (const auto& r : cloud.returns) {
    if (!r.hit) continue;
    if (r.point.z < cfg.z_min + ground_tolerance) continue;
    const int ix =
        static_cast<int>((r.point.x + cfg.extent) / (2.0 * cfg.extent) * cfg.nx);
    const int iy =
        static_cast<int>((r.point.y + cfg.extent) / (2.0 * cfg.extent) * cfg.ny);
    const int iz = static_cast<int>((r.point.z - cfg.z_min) /
                                    (cfg.z_max - cfg.z_min) * cfg.nz);
    if (ix < 0 || ix >= cfg.nx || iy < 0 || iy >= cfg.ny || iz < 0 ||
        iz >= cfg.nz)
      continue;
    grid.occ_[grid.index(ix, iy, iz)] = true;
  }
  return grid;
}

bool VoxelGrid::occupied(int ix, int iy, int iz) const {
  return occ_[index(ix, iy, iz)];
}

void VoxelGrid::set(int ix, int iy, int iz, bool value) {
  occ_[index(ix, iy, iz)] = value;
}

std::size_t VoxelGrid::occupied_count() const {
  std::size_t n = 0;
  for (bool b : occ_)
    if (b) ++n;
  return n;
}

std::size_t VoxelGrid::voxel_count() const { return occ_.size(); }

Vec3 VoxelGrid::voxel_center(int ix, int iy, int iz) const {
  return {-cfg_.extent + (ix + 0.5) * cfg_.cell_x(),
          -cfg_.extent + (iy + 0.5) * cfg_.cell_y(),
          cfg_.z_min + (iz + 0.5) * cfg_.cell_z()};
}

double VoxelGrid::voxel_range(int ix, int iy) const {
  return voxel_center(ix, iy, 0).range_xy();
}

double VoxelGrid::voxel_azimuth(int ix, int iy) const {
  const Vec3 c = voxel_center(ix, iy, 0);
  double a = std::atan2(c.y, c.x);
  if (a < 0.0) a += 2.0 * std::numbers::pi;
  return a;
}

nn::Tensor VoxelGrid::to_tensor() const {
  nn::Tensor t({1, cfg_.nz, cfg_.ny, cfg_.nx});
  for (std::size_t i = 0; i < occ_.size(); ++i) t[i] = occ_[i] ? 1.0 : 0.0;
  return t;
}

VoxelGrid VoxelGrid::from_tensor(const nn::Tensor& t,
                                 const VoxelGridConfig& cfg) {
  S2A_CHECK(t.shape() ==
            (std::vector<int>{1, cfg.nz, cfg.ny, cfg.nx}));
  VoxelGrid grid(cfg);
  for (std::size_t i = 0; i < grid.occ_.size(); ++i) grid.occ_[i] = t[i] > 0.5;
  return grid;
}

double VoxelGrid::iou(const VoxelGrid& other) const {
  S2A_CHECK(occ_.size() == other.occ_.size());
  std::size_t inter = 0, uni = 0;
  for (std::size_t i = 0; i < occ_.size(); ++i) {
    if (occ_[i] && other.occ_[i]) ++inter;
    if (occ_[i] || other.occ_[i]) ++uni;
  }
  return uni > 0 ? static_cast<double>(inter) / uni : 1.0;
}

}  // namespace s2a::lidar
