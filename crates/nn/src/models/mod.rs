//! Reference model architectures.
//!
//! * [`ResNetLite`] — a scaled-down residual CNN standing in for the
//!   paper's ResNet-34 on CIFAR-10 (see DESIGN.md for the substitution
//!   argument). The face experiments (Table IV, Fig. 5) train it on the
//!   many-class synthetic face data in place of Inception-ResNet-v1.
//! * [`ConvNet`] — a plain VGG-style CNN without skip connections, for
//!   checking architecture-independence of the attack.

mod convnet;
mod resnet;

pub use convnet::{ConvNet, ConvNetBuilder};
pub use resnet::{ResNetLite, ResNetLiteBuilder};
