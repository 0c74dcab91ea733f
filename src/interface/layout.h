#pragma once

#include "interface/widget_tree.h"
#include "util/status.h"
#include "widgets/constants.h"

namespace ifgen {

/// \brief Result of laying out a widget tree against a screen.
struct LayoutResult {
  bool fits = false;
  int width = 0;
  int height = 0;
};

/// \brief Computes bounding boxes bottom-up and positions top-down
/// (paper, Figure 2's blue boxes), then checks the screen constraint.
///
/// Composition:
///  - Vertical:   w = max child w,      h = sum child h
///  - Horizontal: w = sum child w + gaps, h = max child h
///  - Tabs/TabLayout: w = max(tab bar, widest panel), h = 1 + tallest panel
///  - Adder: child template + one row for the "+" control
///
/// A widget tree that exceeds the screen is invalid — the cost model maps
/// that to infinite cost.
LayoutResult ComputeLayout(WidgetNode* root, const Screen& screen);

/// The same boxes for a flat layout, composed in place into each widget's
/// width/height; no positions (scoring needs only the fit).
LayoutResult ComputeLayout(FlatLayout* layout, const Screen& screen);

}  // namespace ifgen
