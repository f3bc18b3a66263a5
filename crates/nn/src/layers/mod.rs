//! Layer implementations: convolution, fully-connected, batch
//! normalization, ReLU, pooling, reshaping, residual and sequential
//! blocks.

mod activation;
mod batchnorm;
mod conv;
mod flatten;
mod linear;
mod pool;
mod residual;
mod sequential;

pub use activation::ReLU;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;
pub use sequential::Sequential;
